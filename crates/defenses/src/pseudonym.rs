//! MAC-address pseudonyms.
//!
//! Pseudonym schemes periodically replace the client's MAC address with a
//! fresh disposable identifier so that an eavesdropper cannot link traffic
//! across rotation boundaries. The paper's criticism (§II-B) is that the
//! rotation happens at a coarse granularity (per session or when idle), so
//! every individual partition still exposes the original traffic features —
//! which is exactly what this module lets the experiments demonstrate.
//!
//! Rotation is an online mechanism, so [`PseudonymStage`] is the primary
//! implementation: a partitioning [`PacketStage`] that opens a fresh sub-flow
//! (with a freshly drawn locally-administered MAC) every time the rotation
//! period elapses, in constant memory per sub-flow. The batch
//! [`PseudonymRotator::partition`] is a thin wrapper that drives a stage over
//! a materialised trace — identical partitions per seed (property-tested in
//! `tests/stage_equivalence.rs`).

use crate::overhead::Overhead;
use crate::stage::{FlowId, FlowMap, PacketStage, StageOutput, ROOT_FLOW};
use rand::Rng;
use serde::{Deserialize, Serialize};
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use wlan_sim::mac::MacAddress;
use wlan_sim::time::{SimDuration, SimTime};

/// Rotates the client MAC address every `rotation_period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PseudonymRotator {
    rotation_period: SimDuration,
}

impl Default for PseudonymRotator {
    fn default() -> Self {
        // A common choice in the literature: rotate once per session, here
        // approximated as every 60 seconds of activity.
        PseudonymRotator {
            rotation_period: SimDuration::from_secs(60),
        }
    }
}

impl PseudonymRotator {
    /// Creates a rotator with the given rotation period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(rotation_period: SimDuration) -> Self {
        assert!(
            !rotation_period.is_zero(),
            "rotation period must be positive"
        );
        PseudonymRotator { rotation_period }
    }

    /// The streaming rotation stage, drawing pseudonyms from `rng`.
    ///
    /// Pass an owned seeded generator for standalone pipelines, or `&mut rng`
    /// to share a caller's generator (as the batch wrapper does).
    pub fn stage_with_rng<R: Rng>(&self, rng: R) -> PseudonymStage<R> {
        PseudonymStage::new(*self, rng)
    }

    /// Splits a trace into per-pseudonym partitions: each partition is the
    /// traffic sent under one disposable MAC address, labelled with that
    /// address. The adversary sees each partition as a distinct device.
    ///
    /// Thin batch wrapper over [`PseudonymStage`]: the packets stream through
    /// the stage, and the per-sub-flow output is grouped back into traces.
    pub fn partition<R: Rng + ?Sized>(
        &self,
        trace: &Trace,
        rng: &mut R,
    ) -> Vec<(MacAddress, Trace)> {
        let mut stage = self.stage_with_rng(&mut *rng);
        let mut staged = StageOutput::with_capacity(trace.len());
        for packet in trace.packets() {
            stage.route(ROOT_FLOW, packet, &mut staged);
        }
        let mut partitions: Vec<(MacAddress, Trace)> = (0..stage.flow_count())
            .map(|flow| {
                let mut t = Trace::new();
                t.set_app(trace.app());
                (
                    stage
                        .pseudonym_of(flow as FlowId)
                        .expect("every allocated flow has a pseudonym"),
                    t,
                )
            })
            .collect();
        for (flow, packet) in staged {
            partitions[flow as usize].1.push(packet);
        }
        partitions
    }
}

/// The streaming pseudonym defense: routes packets onto a fresh sub-flow
/// (fresh random locally-administered MAC) every rotation period.
///
/// Epochs are measured from the first packet the stage sees, exactly like the
/// batch partitioning measured from a trace's first packet. When composed
/// after another partitioning stage, each incoming sub-flow rotates through
/// its own pseudonyms (keyed per `(incoming flow, epoch)`).
#[derive(Debug)]
pub struct PseudonymStage<R: Rng> {
    rotator: PseudonymRotator,
    rng: R,
    origin: Option<SimTime>,
    flows: FlowMap<u64>,
    pseudonyms: Vec<MacAddress>,
    ledger: Overhead,
}

impl<R: Rng> PseudonymStage<R> {
    /// Creates a stage for `rotator`, drawing pseudonyms from `rng`.
    pub fn new(rotator: PseudonymRotator, rng: R) -> Self {
        PseudonymStage {
            rotator,
            rng,
            origin: None,
            flows: FlowMap::new(),
            pseudonyms: Vec::new(),
            ledger: Overhead::default(),
        }
    }

    /// Number of pseudonym sub-flows opened so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The MAC address transmitting sub-flow `flow`.
    pub fn pseudonym_of(&self, flow: FlowId) -> Option<MacAddress> {
        self.pseudonyms.get(flow as usize).copied()
    }

    /// The per-packet routing kernel shared by [`PacketStage::on_packet`] and
    /// the batch wrapper (which drives it without the trait's `Send + Debug`
    /// object bounds, so it works with any borrowed generator).
    fn route(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        let origin = *self.origin.get_or_insert(packet.time);
        let period = self.rotator.rotation_period.as_micros().max(1);
        let epoch = packet.time.saturating_since(origin).as_micros() / period;
        let (out_flow, fresh) = self.flows.id_of(flow, epoch);
        if fresh {
            self.pseudonyms
                .push(MacAddress::random_locally_administered(&mut self.rng));
        }
        self.ledger.record(packet.size as u64, packet.size as u64);
        out.push((out_flow, *packet));
    }
}

impl<R: Rng + std::fmt::Debug + Send> PacketStage for PseudonymStage<R> {
    fn name(&self) -> &'static str {
        "pseudonym"
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        self.route(flow, packet, out);
    }

    fn overhead(&self) -> Overhead {
        self.ledger
    }

    /// Clears epoch/sub-flow state and the ledger. The random generator keeps
    /// its state: pseudonyms are disposable, so a reused stage simply draws
    /// fresh addresses for the next session.
    fn reset(&mut self) {
        self.origin = None;
        self.flows.reset();
        self.pseudonyms.clear();
        self.ledger = Overhead::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;

    #[test]
    fn partitions_cover_the_trace_with_distinct_addresses() {
        let trace = SessionGenerator::new(AppKind::Video, 1).generate_secs(180.0);
        let mut rng = StdRng::seed_from_u64(1);
        let rotator = PseudonymRotator::default();
        let partitions = rotator.partition(&trace, &mut rng);
        assert!(
            partitions.len() >= 3,
            "3 minutes should give >= 3 pseudonyms"
        );
        let total: usize = partitions.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total, trace.len());
        let addrs: HashSet<_> = partitions.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs.len(), partitions.len(), "pseudonyms must be unique");
        for (a, t) in &partitions {
            assert_ne!(a.octets()[0] & 0x02, 0, "locally administered");
            assert_eq!(t.app(), Some(AppKind::Video));
        }
    }

    #[test]
    fn per_partition_features_still_match_the_original_application() {
        // The paper's point: each pseudonym partition still looks like the app.
        let trace = SessionGenerator::new(AppKind::Downloading, 2).generate_secs(120.0);
        let mut rng = StdRng::seed_from_u64(2);
        let partitions = PseudonymRotator::default().partition(&trace, &mut rng);
        for (_, part) in partitions {
            if part.len() < 10 {
                continue;
            }
            let down: Vec<usize> = part.sizes(traffic_gen::packet::Direction::Downlink);
            let mean = down.iter().sum::<usize>() as f64 / down.len().max(1) as f64;
            assert!(
                mean > 1400.0,
                "downloading partitions keep their large downlink mean packet size (got {mean})"
            );
        }
    }

    #[test]
    fn stage_rotates_flows_on_epoch_boundaries() {
        let rotator = PseudonymRotator::new(SimDuration::from_secs(10));
        let mut stage = rotator.stage_with_rng(StdRng::seed_from_u64(5));
        assert_eq!(stage.name(), "pseudonym");
        let mut out = StageOutput::new();
        let p = |secs: f64| {
            PacketRecord::new(
                SimTime::from_secs_f64(secs),
                500,
                traffic_gen::packet::Direction::Downlink,
                AppKind::Video,
            )
        };
        for secs in [0.0, 5.0, 9.9, 10.1, 25.0] {
            stage.on_packet(crate::stage::ROOT_FLOW, &p(secs), &mut out);
        }
        let flows: Vec<FlowId> = out.iter().map(|(f, _)| *f).collect();
        assert_eq!(flows, vec![0, 0, 0, 1, 2]);
        assert_eq!(stage.flow_count(), 3);
        let macs: HashSet<_> = (0..3).map(|f| stage.pseudonym_of(f).unwrap()).collect();
        assert_eq!(macs.len(), 3);
        assert_eq!(stage.pseudonym_of(9), None);
        // Zero byte overhead, packets preserved.
        assert_eq!(stage.overhead().percent(), 0.0);
        assert_eq!(stage.overhead().transformed_packets, 5);
        // Reset clears partitions but keeps drawing fresh addresses.
        stage.reset();
        assert_eq!(stage.flow_count(), 0);
        stage.on_packet(crate::stage::ROOT_FLOW, &p(0.0), &mut out);
        assert!(!macs.contains(&stage.pseudonym_of(0).unwrap()));
    }

    #[test]
    fn empty_trace_has_no_partitions() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(PseudonymRotator::default()
            .partition(&Trace::new(), &mut rng)
            .is_empty());
    }

    #[test]
    fn unlabelled_traces_partition_without_labels() {
        let labelled = SessionGenerator::new(AppKind::Video, 4).generate_secs(30.0);
        let mut unlabelled = labelled.clone();
        unlabelled.set_app(None);
        let mut rng = StdRng::seed_from_u64(4);
        let partitions = PseudonymRotator::default().partition(&unlabelled, &mut rng);
        assert!(!partitions.is_empty());
        assert!(partitions.iter().all(|(_, t)| t.app().is_none()));
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let _ = PseudonymRotator::new(SimDuration::ZERO);
    }
}
