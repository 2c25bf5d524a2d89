//! Golden digests of the batch generator.
//!
//! Every training and evaluation corpus, every morphing calibration session
//! and every table is built from `SessionGenerator`, so its packets must not
//! drift when the generation engine is refactored. For each application this
//! pins the packet count and an FNV-1a digest over (time µs, size, direction)
//! of a 30 s session and of two 10 s sessions.

use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::Direction;
use traffic_gen::trace::Trace;

/// Packet count and FNV-1a 64 digest of a trace.
type Digest = (usize, u64);

fn digest(trace: &Trace) -> Digest {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in trace.packets() {
        let direction = match p.direction {
            Direction::Downlink => 0u8,
            Direction::Uplink => 1u8,
        };
        let bytes = p
            .time
            .as_micros()
            .to_le_bytes()
            .into_iter()
            .chain((p.size as u64).to_le_bytes())
            .chain([direction]);
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (trace.len(), hash)
}

/// `(app, generate_secs(30.0) at seed 7, generate_sessions(2, 10.0) at seed 3)`.
const GOLDEN: [(AppKind, Digest, [Digest; 2]); 7] = [
    (
        AppKind::Browsing,
        (1428, 0xcefa08a1d3cfa911),
        [(581, 0xf9d3da0cd6ee6a38), (542, 0xb8faac7ba8e396cc)],
    ),
    (
        AppKind::Chatting,
        (67, 0x175c32571d349613),
        [(29, 0x477e99975ee8cecf), (19, 0x04554ee6411c63d9)],
    ),
    (
        AppKind::Gaming,
        (218, 0xe40256cde15398ea),
        [(82, 0x7280ef1f95676b61), (66, 0xc407b7472f095ac6)],
    ),
    (
        AppKind::Downloading,
        (19543, 0x80a38351c2be2d6b),
        [(6498, 0x1c573e54aec650ab), (6526, 0xa8bef45388053504)],
    ),
    (
        AppKind::Uploading,
        (5959, 0x05abb88202277fe0),
        [(2002, 0x5433f1e1164d66ca), (2000, 0xe7602ab7478a7186)],
    ),
    (
        AppKind::Video,
        (3762, 0x0b85c4b856fad114),
        [(1252, 0xa0449f098a1484c4), (1249, 0x4cab96e71de66885)],
    ),
    (
        AppKind::BitTorrent,
        (1820, 0x2b5da19ae5a9272c),
        [(636, 0x0e065ab84ea284ad), (575, 0x16c13923c825232c)],
    ),
];

#[test]
fn batch_sessions_match_their_golden_digests() {
    let mut actual = Vec::new();
    for app in AppKind::ALL {
        let single = digest(&SessionGenerator::new(app, 7).generate_secs(30.0));
        let sessions = SessionGenerator::new(app, 3).generate_sessions(2, 10.0);
        actual.push((app, single, [digest(&sessions[0]), digest(&sessions[1])]));
    }
    assert_eq!(actual, GOLDEN, "{actual:#x?}");
}
