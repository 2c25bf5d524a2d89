//! Property-based integration tests over the traffic generators and the trace
//! container: windowing is a partition, serialization round-trips, merging is
//! size-preserving, and every generated packet respects the frame limits.

use proptest::prelude::*;
use traffic_gen::app::AppKind;
use traffic_gen::distribution::SizeHistogram;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::Direction;
use traffic_gen::trace::Trace;
use traffic_gen::{MAX_PACKET_SIZE, MIN_PACKET_SIZE};
use wlan_sim::time::SimDuration;

fn any_app() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_packets_respect_limits_and_ordering(app in any_app(), seed in 0u64..200) {
        let trace = SessionGenerator::new(app, seed).generate_secs(8.0);
        prop_assert!(!trace.is_empty());
        prop_assert_eq!(trace.app(), Some(app));
        let packets = trace.packets();
        prop_assert!(packets.windows(2).all(|w| w[0].time <= w[1].time));
        for p in packets {
            prop_assert!(p.size >= MIN_PACKET_SIZE && p.size <= MAX_PACKET_SIZE);
            prop_assert!(p.time.as_secs_f64() <= 8.0 + 1e-9);
            prop_assert_eq!(p.app, app);
        }
    }

    #[test]
    fn windowing_partitions_the_trace(app in any_app(), seed in 0u64..200, window_secs in 1u64..20) {
        let trace = SessionGenerator::new(app, seed).generate_secs(30.0);
        let windows = trace.windows(SimDuration::from_secs(window_secs));
        let total: usize = windows.iter().map(Trace::len).sum();
        prop_assert_eq!(total, trace.len());
        for w in &windows {
            prop_assert!(!w.is_empty());
            prop_assert_eq!(w.app(), Some(app));
            let span = w.packets()[w.len() - 1].time.saturating_since(w.packets()[0].time);
            prop_assert!(span.as_secs_f64() <= window_secs as f64 + 1e-9);
        }
    }

    #[test]
    fn histograms_of_generated_traffic_are_proper_distributions(app in any_app(), seed in 0u64..100) {
        let trace = SessionGenerator::new(app, seed).generate_secs(10.0);
        let hist = SizeHistogram::from_sizes(
            trace.sizes(Direction::Downlink).into_iter(),
            MAX_PACKET_SIZE,
            8,
        );
        if !hist.is_empty() {
            let pdf_sum: f64 = hist.pdf().iter().sum();
            prop_assert!((pdf_sum - 1.0).abs() < 1e-9);
            let cdf = hist.cdf();
            prop_assert!(cdf.windows(2).all(|w| w[1] >= w[0] - 1e-12));
            prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
            prop_assert!(hist.mean() >= MIN_PACKET_SIZE as f64 * 0.5);
            prop_assert!(hist.mean() <= MAX_PACKET_SIZE as f64);
        }
    }
}

#[test]
fn distinct_applications_remain_statistically_distinguishable() {
    // A coarse separation check underpinning the whole evaluation: the
    // downlink mean sizes of the seven applications are spread out, not
    // collapsed onto one value.
    let mut means: Vec<(AppKind, f64)> = AppKind::ALL
        .iter()
        .map(|&app| {
            let trace = SessionGenerator::new(app, 3).generate_secs(60.0);
            let sizes = trace.sizes(Direction::Downlink);
            (app, sizes.iter().sum::<usize>() as f64 / sizes.len() as f64)
        })
        .collect();
    means.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    assert_eq!(means.first().unwrap().0, AppKind::Uploading);
    assert!(matches!(
        means.last().unwrap().0,
        AppKind::Downloading | AppKind::Video
    ));
    // The spread between smallest and largest mean is an order of magnitude.
    assert!(means.last().unwrap().1 / means.first().unwrap().1 > 5.0);
}
