//! The on-air adapter between the reshaping engine and the WLAN simulator.
//!
//! The member crates are deliberately decoupled: `wlan-sim` knows about frames
//! and RSSI, `traffic-gen` about packet streams, `reshape-core` about virtual
//! interfaces. The bridge converts a reshaped packet stream into the frames
//! the paper's Fig. 3 data path puts on the air:
//!
//! * [`packet_to_frame`] turns one packet record into a data frame between a
//!   station address and the AP, and
//! * [`trace_to_frames`] dispatches a whole [`Trace`] through the [`Reshaper`]
//!   and gives every frame the virtual MAC of the interface the scheduler
//!   picked, resolved through the installed [`TranslationTable`].
//!
//! The receive side is the caller's: transmit each frame into a
//! [`Sniffer`](crate::wlan::sniffer::Sniffer) and read the eavesdropper's
//! per-device view back with `Sniffer::flows_by_device`, as the `home_wlan`
//! example and the `end_to_end_wlan` test do. The packet-facing online
//! adversary runs in `bench::streaming::StationRun` instead, which windows
//! the staged stream and scores it with a `PrequentialEvaluator`.

use crate::reshape::reshaper::Reshaper;
use crate::reshape::translation::TranslationTable;
use crate::reshape::vif::VifIndex;
use crate::traffic::packet::{Direction, PacketRecord};
use crate::traffic::trace::Trace;
use crate::wlan::frame::{Frame, MAC_OVERHEAD_BYTES};
use crate::wlan::mac::MacAddress;
use crate::wlan::time::SimTime;

/// Converts one packet record into an on-air frame between a station (or one
/// of its virtual interfaces) and the AP.
///
/// Downlink packets become `AP -> station_addr` frames, uplink packets become
/// `station_addr -> AP` frames. The frame's on-air size equals the packet's
/// recorded size (payload is zero-filled; only its length matters).
pub fn packet_to_frame(packet: &PacketRecord, station_addr: MacAddress, ap: MacAddress) -> Frame {
    let (src, dst) = match packet.direction {
        Direction::Downlink => (ap, station_addr),
        Direction::Uplink => (station_addr, ap),
    };
    let air_size = packet.size.max(MAC_OVERHEAD_BYTES);
    Frame::data_of_air_size(src, dst, air_size)
}

/// Resolves the on-air address for a packet assigned to `vif`: the station's
/// virtual MAC from the translation table, falling back to the physical
/// address when no mapping is installed (reshaping disabled).
fn on_air_address(table: &TranslationTable, physical: MacAddress, vif: VifIndex) -> MacAddress {
    table.virtual_of(physical, vif).unwrap_or(physical)
}

/// Converts a whole trace into frames, dispatching every packet through the
/// reshaping engine so each frame carries the virtual MAC address chosen by
/// the scheduler. Returns `(time, frame)` pairs in transmission order.
///
/// The installed [`TranslationTable`] is the single source of vif→MAC truth —
/// the produced frames are exactly what the paper's Fig. 3 data path would
/// put on the air. Stations without an installed mapping transmit under their
/// physical address.
pub fn trace_to_frames(
    trace: &Trace,
    reshaper: &mut Reshaper,
    table: &TranslationTable,
    physical: MacAddress,
    ap: MacAddress,
) -> Vec<(SimTime, Frame)> {
    let outcome = reshaper.reshape(trace);
    trace
        .packets()
        .iter()
        .zip(outcome.assignments())
        .map(|(packet, &(_, vif))| {
            let addr = on_air_address(table, physical, vif);
            (packet.time, packet_to_frame(packet, addr, ap))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reshape::ranges::SizeRanges;
    use crate::reshape::scheduler::OrthogonalRanges;
    use crate::reshape::vif::VirtualInterfaceSet;
    use crate::traffic::app::AppKind;
    use crate::traffic::generator::SessionGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn station() -> MacAddress {
        MacAddress::new([0x00, 0x11, 0x22, 0, 0, 1])
    }

    fn ap() -> MacAddress {
        MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa])
    }

    fn installed_vifs(seed: u64, n: usize) -> (VirtualInterfaceSet, TranslationTable) {
        let mut rng = StdRng::seed_from_u64(seed);
        let macs: Vec<MacAddress> = (0..n)
            .map(|_| MacAddress::random_locally_administered(&mut rng))
            .collect();
        let vifs = VirtualInterfaceSet::from_macs(&macs);
        let mut table = TranslationTable::new();
        table.install(station(), &vifs);
        (vifs, table)
    }

    fn or_reshaper() -> Reshaper {
        Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())))
    }

    #[test]
    fn packet_to_frame_maps_directions() {
        let down = PacketRecord::new(
            SimTime::from_secs_f64(0.0),
            1400,
            Direction::Downlink,
            AppKind::Video,
        );
        let up = PacketRecord::new(
            SimTime::from_secs_f64(0.1),
            200,
            Direction::Uplink,
            AppKind::Video,
        );
        let f_down = packet_to_frame(&down, station(), ap());
        assert_eq!(f_down.header().src(), ap());
        assert_eq!(f_down.header().dst(), station());
        assert_eq!(f_down.air_size(), 1400);
        let f_up = packet_to_frame(&up, station(), ap());
        assert_eq!(f_up.header().src(), station());
        assert_eq!(f_up.header().dst(), ap());
        assert_eq!(f_up.air_size(), 200);
        // Tiny packets are clamped to the MAC overhead.
        let tiny = PacketRecord::new(
            SimTime::from_secs_f64(0.2),
            10,
            Direction::Uplink,
            AppKind::Video,
        );
        assert_eq!(
            packet_to_frame(&tiny, station(), ap()).air_size(),
            MAC_OVERHEAD_BYTES
        );
    }

    #[test]
    fn trace_to_frames_uses_virtual_addresses() {
        let (vifs, table) = installed_vifs(3, 3);
        let macs = vifs.macs();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(5.0);
        let mut reshaper = or_reshaper();
        let frames = trace_to_frames(&trace, &mut reshaper, &table, station(), ap());
        assert_eq!(frames.len(), trace.len());
        // Every frame involves the AP and one of the virtual addresses.
        for (_, frame) in &frames {
            let other = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert!(macs.contains(&other), "unexpected device address {other}");
        }
        // All three virtual addresses appear (BT covers all three size ranges).
        for mac in &macs {
            assert!(frames
                .iter()
                .any(|(_, f)| f.header().src() == *mac || f.header().dst() == *mac));
        }
    }

    #[test]
    fn translation_table_is_the_source_of_vif_addresses() {
        // Regression test for the dead-table bug: vif→MAC resolution must go
        // through the *installed* translation table. Each frame's device
        // address has to be exactly `table.virtual_of(physical, vif)` for the
        // vif the scheduler picked — recomputed here with an identical,
        // independently-built scheduler.
        let (_, table) = installed_vifs(7, 3);
        let trace = SessionGenerator::new(AppKind::BitTorrent, 2).generate_secs(5.0);
        let frames = trace_to_frames(&trace, &mut or_reshaper(), &table, station(), ap());
        let outcome = or_reshaper().reshape(&trace);
        assert_eq!(frames.len(), outcome.assignments().len());
        for ((_, frame), &(index, vif)) in frames.iter().zip(outcome.assignments()) {
            let expected = table
                .virtual_of(station(), vif)
                .expect("table maps every scheduled vif");
            let device = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert_eq!(
                device, expected,
                "packet {index}: frame must carry the table's address for {vif}"
            );
        }
    }

    #[test]
    fn uninstalled_station_falls_back_to_its_physical_address() {
        // No mapping installed: the station transmits under its physical MAC.
        let table = TranslationTable::new();
        let trace = SessionGenerator::new(AppKind::Video, 4).generate_secs(3.0);
        let frames = trace_to_frames(&trace, &mut or_reshaper(), &table, station(), ap());
        for (_, frame) in &frames {
            let device = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert_eq!(device, station());
        }
    }
}
