//! Figure experiments: the packet-size distributions of Fig. 1 and the
//! per-interface histograms/PDFs of Figs. 4 and 5.

use reshape_core::ranges::SizeRanges;
use reshape_core::reshaper::Reshaper;
use reshape_core::scheduler::{OrthogonalModulo, OrthogonalRanges, ReshapeAlgorithm};
use traffic_gen::app::AppKind;
use traffic_gen::distribution::SizeHistogram;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::Direction;
use traffic_gen::trace::Trace;
use traffic_gen::MAX_PACKET_SIZE;

/// Bin width (bytes) used for the figure histograms.
pub const FIGURE_BIN_WIDTH: usize = 8;

/// One application's downlink packet-size distribution (Fig. 1 series).
#[derive(Debug, Clone)]
pub struct AppSizePdf {
    /// The application.
    pub app: AppKind,
    /// Number of downlink packets measured.
    pub packets: usize,
    /// Mean downlink packet size in bytes.
    pub mean_size: f64,
    /// Fraction of downlink packets at most 232 bytes (the small-packet mode).
    pub small_fraction: f64,
    /// Fraction of downlink packets of at least 1546 bytes (the near-MTU mode).
    pub large_fraction: f64,
    /// The cumulative distribution sampled every 200 bytes (x = 200, 400, … 1600),
    /// which is the shape Fig. 1 plots.
    pub cdf_samples: Vec<(usize, f64)>,
}

/// Figure 1: the downlink packet-size PDF of each of the seven applications.
pub fn figure1(seed: u64, session_secs: f64) -> Vec<AppSizePdf> {
    AppKind::ALL
        .iter()
        .map(|&app| {
            let trace = SessionGenerator::new(app, seed).generate_secs(session_secs);
            let sizes = trace.sizes(Direction::Downlink);
            let histogram =
                SizeHistogram::from_sizes(sizes.iter().copied(), MAX_PACKET_SIZE, FIGURE_BIN_WIDTH);
            let cdf = histogram.cdf();
            let cdf_at = |size: usize| -> f64 {
                let bin = (size / FIGURE_BIN_WIDTH).min(cdf.len() - 1);
                cdf[bin]
            };
            let small =
                sizes.iter().filter(|s| **s <= 232).count() as f64 / sizes.len().max(1) as f64;
            let large =
                sizes.iter().filter(|s| **s >= 1546).count() as f64 / sizes.len().max(1) as f64;
            AppSizePdf {
                app,
                packets: sizes.len(),
                mean_size: histogram.mean(),
                small_fraction: small,
                large_fraction: large,
                cdf_samples: (1..=8).map(|i| (i * 200, cdf_at(i * 200))).collect(),
            }
        })
        .collect()
}

/// One interface's series in Fig. 4 / Fig. 5: the per-range packet counts and
/// summary statistics of the sub-flow carried by that interface.
#[derive(Debug, Clone)]
pub struct InterfaceSeries {
    /// Paper-style interface number (1-based); 0 denotes the original traffic.
    pub interface: usize,
    /// Number of packets on this interface.
    pub packets: usize,
    /// Mean packet size on this interface.
    pub mean_size: f64,
    /// Minimum packet size on this interface (0 when empty).
    pub min_size: usize,
    /// Maximum packet size on this interface (0 when empty).
    pub max_size: usize,
    /// Packet counts per 200-byte bucket (x = 0..=1600 step 200), the shape of
    /// the histograms in Figs. 4(a)–(d) and 5(a)–(d).
    pub histogram_200: Vec<u64>,
}

/// The complete data behind Fig. 4 or Fig. 5.
#[derive(Debug, Clone)]
pub struct OrFigure {
    /// Which scheduling rule produced it ("OR" for Fig. 4, "OR-mod" for Fig. 5).
    pub algorithm: String,
    /// The original traffic's series (interface number 0).
    pub original: InterfaceSeries,
    /// One series per virtual interface.
    pub interfaces: Vec<InterfaceSeries>,
}

fn series_of(interface: usize, trace: &Trace) -> InterfaceSeries {
    let sizes: Vec<usize> = trace.packets().iter().map(|p| p.size).collect();
    let bins = MAX_PACKET_SIZE / 200 + 1;
    let mut histogram_200 = vec![0u64; bins];
    for &s in &sizes {
        histogram_200[(s / 200).min(bins - 1)] += 1;
    }
    InterfaceSeries {
        interface,
        packets: sizes.len(),
        mean_size: if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        },
        min_size: sizes.iter().copied().min().unwrap_or(0),
        max_size: sizes.iter().copied().max().unwrap_or(0),
        histogram_200,
    }
}

fn or_figure(algorithm: Box<dyn ReshapeAlgorithm>, seed: u64, session_secs: f64) -> OrFigure {
    let trace = SessionGenerator::new(AppKind::BitTorrent, seed).generate_secs(session_secs);
    let mut reshaper = Reshaper::new(algorithm);
    let name = reshaper.algorithm_name().to_string();
    let outcome = reshaper.reshape(&trace);
    OrFigure {
        algorithm: name,
        original: series_of(0, &trace),
        interfaces: outcome
            .sub_traces()
            .iter()
            .enumerate()
            .map(|(i, t)| series_of(i + 1, t))
            .collect(),
    }
}

/// Figure 4: OR schedules a BitTorrent flow by packet-size ranges
/// `(0, 525], (525, 1050], (1050, 1576]`.
pub fn figure4(seed: u64, session_secs: f64) -> OrFigure {
    let ranges = SizeRanges::equal_width(3, MAX_PACKET_SIZE).expect("three ranges over 1576 bytes");
    or_figure(Box::new(OrthogonalRanges::new(ranges)), seed, session_secs)
}

/// Figure 5: OR schedules the same BitTorrent flow by `size mod 3`.
pub fn figure5(seed: u64, session_secs: f64) -> OrFigure {
    or_figure(Box::new(OrthogonalModulo::new(3)), seed, session_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reproduces_the_bimodal_shape() {
        let series = figure1(1, 60.0);
        assert_eq!(series.len(), 7);
        let by_app = |app: AppKind| series.iter().find(|s| s.app == app).unwrap();
        // Downloading/video are dominated by near-MTU packets, chat/upload by small ones.
        assert!(by_app(AppKind::Downloading).large_fraction > 0.9);
        assert!(by_app(AppKind::Video).large_fraction > 0.9);
        assert!(by_app(AppKind::Chatting).small_fraction > 0.6);
        assert!(by_app(AppKind::Uploading).small_fraction > 0.9);
        // BitTorrent is bimodal.
        let bt = by_app(AppKind::BitTorrent);
        assert!(bt.small_fraction > 0.2 && bt.large_fraction > 0.3);
        for s in &series {
            assert!(s.packets > 0);
            // CDF samples are monotone and end near 1 at 1600 bytes.
            assert!(s.cdf_samples.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
            assert!(s.cdf_samples.last().unwrap().1 > 0.99);
        }
    }

    #[test]
    fn figure4_separates_the_size_ranges() {
        let fig = figure4(2, 60.0);
        assert_eq!(fig.algorithm, "OR");
        assert_eq!(fig.interfaces.len(), 3);
        let total: usize = fig.interfaces.iter().map(|s| s.packets).sum();
        assert_eq!(total, fig.original.packets);
        // Interface 1 carries only small packets, interface 3 only large ones.
        assert!(fig.interfaces[0].max_size <= 526);
        assert!(fig.interfaces[2].min_size >= 1051);
        assert!(fig.interfaces[0].mean_size < fig.interfaces[1].mean_size);
        assert!(fig.interfaces[1].mean_size < fig.interfaces[2].mean_size);
    }

    #[test]
    fn figure5_gives_every_interface_the_full_size_span() {
        let fig = figure5(3, 60.0);
        assert_eq!(fig.algorithm, "OR-mod");
        let total: usize = fig.interfaces.iter().map(|s| s.packets).sum();
        assert_eq!(total, fig.original.packets);
        for series in &fig.interfaces {
            assert!(series.packets > 0);
            // Unlike Fig. 4, each interface sees both small and large packets.
            assert!(
                series.min_size <= 300,
                "interface {} min {}",
                series.interface,
                series.min_size
            );
            assert!(
                series.max_size >= 1500,
                "interface {} max {}",
                series.interface,
                series.max_size
            );
        }
    }
}
