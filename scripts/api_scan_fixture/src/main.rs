//! The fixture's only non-test caller.

use api_scan_fixture::{Report, Unread};

fn main() {
    let report = Report { packets: 3 };
    println!("{}: {:?}", report.label(), serde::Serialize::to_value(&report));
    let unread = Unread { packets: 4 };
    println!("{}", unread.packets);
}
