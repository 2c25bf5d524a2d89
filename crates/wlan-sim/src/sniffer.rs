//! The passive eavesdropper.
//!
//! The attack model of the paper (§II-A) is a sniffer in the same WLAN that
//! records, for every overheard frame, its timestamp, size, addresses, channel
//! and RSSI — everything a tool like Wireshark or Aircrack-ng exposes even
//! when payloads are encrypted. The [`Sniffer`] collects [`CapturedFrame`]s
//! and groups them into per-device flows keyed by the *device address*, i.e.
//! the non-AP side of each frame, which is exactly the granularity at which
//! the traffic-analysis classifier operates.

use crate::channel::{Medium, Position};
use crate::frame::{Frame, FrameType};
use crate::mac::MacAddress;
use crate::phy::Channel;
use crate::time::SimTime;
use rand::Rng;
use std::collections::HashMap;

/// A single frame as observed by the eavesdropper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedFrame {
    /// Capture timestamp.
    pub time: SimTime,
    /// Total on-air size in bytes.
    pub size: usize,
    /// Source MAC address as it appeared on the air (virtual under reshaping).
    pub src: MacAddress,
    /// Destination MAC address as it appeared on the air.
    pub dst: MacAddress,
    /// BSSID of the frame.
    pub bssid: MacAddress,
    /// Channel the sniffer was tuned to when it captured the frame.
    pub channel: Channel,
    /// Received signal strength in dBm at the sniffer.
    pub rssi_dbm: f64,
    /// Whether this was a data frame (management/control frames are usually
    /// excluded from the classifier's features).
    pub is_data: bool,
    /// `true` if the frame travelled from the AP to a station.
    pub from_ap: bool,
}

/// A passive monitor-mode eavesdropper.
#[derive(Debug, Clone)]
pub struct Sniffer {
    position: Position,
    channel: Channel,
    bssid: MacAddress,
    captures: Vec<CapturedFrame>,
}

impl Sniffer {
    /// Creates a sniffer at `position`, locked to the BSS identified by `bssid`,
    /// initially tuned to `channel`.
    pub fn new(position: Position, bssid: MacAddress, channel: Channel) -> Self {
        Sniffer {
            position,
            channel,
            bssid,
            captures: Vec::new(),
        }
    }

    /// All captured frames, in capture order.
    pub fn captures(&self) -> &[CapturedFrame] {
        &self.captures
    }

    /// Clears the capture buffer.
    pub fn clear(&mut self) {
        self.captures.clear();
    }

    /// Observes a transmission on `tx_channel` from a transmitter at
    /// `tx_position` with `tx_power_dbm`. The frame is recorded only if the
    /// sniffer is tuned to that channel and the signal is receivable.
    ///
    /// Returns `true` if the frame was captured.
    #[allow(clippy::too_many_arguments)]
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        time: SimTime,
        frame: &Frame,
        tx_position: Position,
        tx_power_dbm: f64,
        tx_channel: Channel,
        medium: &Medium,
        rng: &mut R,
    ) -> bool {
        if tx_channel != self.channel {
            return false;
        }
        if !medium.is_receivable(tx_position, self.position, tx_power_dbm) {
            return false;
        }
        let rssi_dbm = medium.observe_rssi(tx_position, self.position, tx_power_dbm, rng);
        let from_ap = frame.header().src() == self.bssid;
        self.captures.push(CapturedFrame {
            time,
            size: frame.air_size(),
            src: frame.header().src(),
            dst: frame.header().dst(),
            bssid: frame.header().bssid(),
            channel: tx_channel,
            rssi_dbm,
            is_data: frame.header().frame_type() == FrameType::Data,
            from_ap,
        });
        true
    }

    /// Groups captured **data** frames by device address: for each frame the
    /// key is the non-AP side (destination when the frame came from the AP,
    /// source otherwise). This is the adversary's per-"user" view; under
    /// reshaping every virtual interface shows up as a separate device.
    pub fn flows_by_device(&self) -> HashMap<MacAddress, Vec<CapturedFrame>> {
        let mut flows: HashMap<MacAddress, Vec<CapturedFrame>> = HashMap::new();
        for c in &self.captures {
            if !c.is_data {
                continue;
            }
            let device = if c.from_ap { c.dst } else { c.src };
            if device.is_multicast() {
                continue;
            }
            flows.entry(device).or_default().push(*c);
        }
        flows
    }

    /// Mean RSSI per device address, the physical-layer linking feature
    /// discussed in §V-A (power analysis).
    pub fn mean_rssi_by_device(&self) -> HashMap<MacAddress, f64> {
        let mut sums: HashMap<MacAddress, (f64, u64)> = HashMap::new();
        for c in &self.captures {
            if c.from_ap || !c.is_data {
                // Only frames transmitted by the station reveal its TX power/position.
                continue;
            }
            let e = sums.entry(c.src).or_insert((0.0, 0));
            e.0 += c.rssi_dbm;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(addr, (sum, n))| (addr, sum / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ManagementSubtype;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bssid() -> MacAddress {
        MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa])
    }

    fn sta(last: u8) -> MacAddress {
        MacAddress::new([0x02, 0, 0, 0, 0, last])
    }

    fn make_sniffer() -> Sniffer {
        Sniffer::new(Position::new(8.0, 0.0), bssid(), Channel::CH6)
    }

    /// Observes every frame on the sniffer's channel from a transmitter at
    /// `tx`, in range of the default medium.
    fn observe_all(sniffer: &mut Sniffer, frames: &[(Frame, Position)]) {
        let medium = Medium::default();
        let mut rng = StdRng::seed_from_u64(0);
        for (frame, tx) in frames {
            let captured = sniffer.observe(
                SimTime::ZERO,
                frame,
                *tx,
                15.0,
                Channel::CH6,
                &medium,
                &mut rng,
            );
            assert!(captured);
        }
    }

    #[test]
    fn observes_only_its_channel() {
        let mut sniffer = make_sniffer();
        let medium = Medium::default();
        let mut rng = StdRng::seed_from_u64(0);
        let frame = Frame::data(sta(1), bssid(), vec![0u8; 500]);
        let tx = Position::new(0.0, 0.0);
        assert!(!sniffer.observe(
            SimTime::ZERO,
            &frame,
            tx,
            15.0,
            Channel::CH1,
            &medium,
            &mut rng
        ));
        assert!(sniffer.observe(
            SimTime::ZERO,
            &frame,
            tx,
            15.0,
            Channel::CH6,
            &medium,
            &mut rng
        ));
        assert_eq!(sniffer.captures().len(), 1);
        let c = sniffer.captures()[0];
        assert_eq!(c.size, frame.air_size());
        assert!(!c.from_ap);
        assert!(c.is_data);
        assert!(c.rssi_dbm < 0.0);
    }

    #[test]
    fn out_of_range_transmissions_are_missed() {
        let mut sniffer = make_sniffer();
        let medium = Medium::default();
        let mut rng = StdRng::seed_from_u64(0);
        let frame = Frame::data(sta(1), bssid(), vec![0u8; 500]);
        let far = Position::new(10_000.0, 0.0);
        assert!(!sniffer.observe(
            SimTime::ZERO,
            &frame,
            far,
            15.0,
            Channel::CH6,
            &medium,
            &mut rng
        ));
    }

    #[test]
    fn flows_are_grouped_by_device_address() {
        let mut sniffer = make_sniffer();
        let here = Position::new(0.0, 0.0);
        // Uplink from station 1, downlink to station 1, downlink to station
        // 2, and a broadcast, which is ignored.
        observe_all(
            &mut sniffer,
            &[
                (Frame::data(sta(1), bssid(), vec![0; 100]), here),
                (Frame::data(bssid(), sta(1), vec![0; 1500]), here),
                (Frame::data(bssid(), sta(2), vec![0; 800]), here),
                (
                    Frame::data(bssid(), MacAddress::BROADCAST, vec![0; 200]),
                    here,
                ),
            ],
        );
        let flows = sniffer.flows_by_device();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[&sta(1)].len(), 2);
        assert_eq!(flows[&sta(2)].len(), 1);
    }

    #[test]
    fn management_frames_are_excluded_from_flows() {
        let mut sniffer = make_sniffer();
        let request = FrameType::Management(ManagementSubtype::AssociationRequest);
        observe_all(
            &mut sniffer,
            &[(
                Frame::builder(request, sta(1), bssid()).build(),
                Position::new(0.0, 0.0),
            )],
        );
        assert!(sniffer.flows_by_device().is_empty());
        sniffer.clear();
        assert!(sniffer.captures().is_empty());
    }

    #[test]
    fn mean_rssi_tracks_uplink_transmitters_only() {
        let mut sniffer = make_sniffer();
        observe_all(
            &mut sniffer,
            &[
                (
                    Frame::data(sta(1), bssid(), vec![0; 100]),
                    Position::new(2.0, 0.0),
                ),
                (
                    Frame::data(sta(1), bssid(), vec![0; 100]),
                    Position::new(0.0, 0.0),
                ),
                (
                    Frame::data(bssid(), sta(1), vec![0; 100]),
                    Position::new(7.0, 0.0),
                ),
            ],
        );
        let uplink: Vec<f64> = sniffer.captures()[..2].iter().map(|c| c.rssi_dbm).collect();
        let rssi = sniffer.mean_rssi_by_device();
        assert_eq!(rssi.len(), 1);
        assert!((rssi[&sta(1)] - (uplink[0] + uplink[1]) / 2.0).abs() < 1e-9);
    }
}
