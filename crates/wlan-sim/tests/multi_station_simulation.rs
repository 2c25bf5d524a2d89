//! Integration test of the WLAN substrate: two stations associate with an AP,
//! exchange data frames in time order, and a passive sniffer observes the
//! channel. Exercises association, the channel model, address filtering and
//! AP-side translation together.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wlan_sim::ap::AccessPoint;
use wlan_sim::channel::{Medium, Position};
use wlan_sim::frame::{Frame, FrameType};
use wlan_sim::mac::MacAddress;
use wlan_sim::phy::{Channel, PhyRate};
use wlan_sim::sniffer::Sniffer;
use wlan_sim::station::Station;
use wlan_sim::time::{SimDuration, SimTime};

fn bssid() -> MacAddress {
    MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa])
}

#[derive(Debug, Clone)]
enum Event {
    Uplink { station: usize, payload: usize },
    Downlink { station: usize, payload: usize },
}

#[test]
fn two_station_bss_with_eavesdropper() {
    let mut rng = StdRng::seed_from_u64(31);
    let medium = Medium::default();
    let mut ap = AccessPoint::new(bssid(), Position::new(0.0, 0.0));
    let mut sniffer = Sniffer::new(Position::new(7.0, 2.0), bssid(), Channel::CH6);

    let mut stations = vec![
        Station::new(
            MacAddress::new([0x02, 0, 0, 0, 0, 0x01]),
            Position::new(4.0, 0.0),
        ),
        Station::new(
            MacAddress::new([0x02, 0, 0, 0, 0, 0x02]),
            Position::new(2.0, 5.0),
        ),
    ];

    // Association handshakes.
    for station in stations.iter_mut() {
        let request = station.start_association(bssid());
        assert!(request.header().frame_type().is_management());
        let (response, aid) = ap
            .handle_association_request(station.physical_addr())
            .unwrap();
        assert_eq!(response.header().dst(), station.physical_addr());
        station.complete_association(aid);
        assert!(station.association().is_associated());
    }
    assert_eq!(ap.station_count(), 2);

    // Alternating uplink/downlink traffic, played back in time order.
    let mut events: Vec<(SimTime, Event)> = Vec::new();
    for k in 0..200u64 {
        let station = (k % 2) as usize;
        let t = SimTime::from_millis(k * 10);
        let event = if k % 3 == 0 {
            Event::Downlink {
                station,
                payload: 1400,
            }
        } else {
            Event::Uplink {
                station,
                payload: 200 + (k as usize % 5) * 100,
            }
        };
        events.push((t, event));
    }
    events.sort_by_key(|&(t, _)| t);

    let mut delivered_uplink = 0u64;
    let mut delivered_downlink = 0u64;
    let mut processed = 0u64;
    for (time, event) in events {
        processed += 1;
        match event {
            Event::Uplink { station, payload } => {
                let sta = &mut stations[station];
                let frame =
                    sta.build_uplink_frame(sta.physical_addr(), bssid(), vec![0u8; payload]);
                // Airtime is well-defined for the selected rate.
                assert!(PhyRate::Mbps54.airtime(frame.air_size()) > SimDuration::ZERO);
                sniffer.observe(
                    time,
                    &frame,
                    sta.position(),
                    sta.tx_power_dbm(),
                    Channel::CH6,
                    &medium,
                    &mut rng,
                );
                let forwarded = ap.translate_uplink(&frame).unwrap();
                assert_eq!(forwarded.header().src(), sta.physical_addr());
                delivered_uplink += 1;
            }
            Event::Downlink { station, payload } => {
                let sta_addr = stations[station].physical_addr();
                let from_ds = Frame::data(
                    MacAddress::new([0xde, 0xad, 0, 0, 0, 9]),
                    sta_addr,
                    vec![0u8; payload],
                );
                let on_air = ap.translate_downlink(&from_ds, sta_addr).unwrap();
                assert_eq!(on_air.header().frame_type(), FrameType::Data);
                sniffer.observe(
                    time,
                    &on_air,
                    ap.position(),
                    ap.tx_power_dbm(),
                    Channel::CH6,
                    &medium,
                    &mut rng,
                );
                // The right station accepts it, the other filters it out.
                for (i, sta) in stations.iter_mut().enumerate() {
                    let received = sta.receive(&on_air);
                    assert_eq!(received.is_some(), i == station);
                }
                delivered_downlink += 1;
            }
        }
    }

    assert_eq!(processed, 200);
    assert_eq!(delivered_uplink + delivered_downlink, 200);
    assert!(ap.frames_forwarded() >= 200);

    // The sniffer saw both stations and can split the capture into two flows.
    let flows = sniffer.flows_by_device();
    assert_eq!(flows.len(), 2);
    for station in &stations {
        let flow = &flows[&station.physical_addr()];
        assert!(!flow.is_empty());
        assert!(flow
            .iter()
            .all(|c| c.rssi_dbm < -20.0 && c.rssi_dbm > -95.0));
    }

    // RSSI clustering separates the two transmitters (they sit at different distances).
    let rssi = sniffer.mean_rssi_by_device();
    assert_eq!(rssi.len(), 2);
    let values: Vec<f64> = rssi.values().copied().collect();
    assert!(
        (values[0] - values[1]).abs() > 0.5,
        "distinct positions give distinct mean RSSI"
    );
}

#[test]
fn disassociation_cleans_up_ap_state() {
    let mut ap = AccessPoint::new(bssid(), Position::new(0.0, 0.0));
    let sta = MacAddress::new([0x02, 0, 0, 0, 0, 0x07]);
    ap.handle_association_request(sta).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let addrs = ap.allocate_virtual_addrs(&mut rng, sta, 3).unwrap();
    assert_eq!(ap.virtual_addrs_of(sta).len(), 3);
    ap.disassociate(sta).unwrap();
    assert_eq!(ap.station_count(), 0);
    for a in addrs {
        assert_eq!(ap.resolve_physical(a), None);
    }
    // The uplink of a disassociated station is rejected.
    let frame = Frame::data(sta, bssid(), vec![0u8; 100]);
    assert!(ap.translate_uplink(&frame).is_err());
}
