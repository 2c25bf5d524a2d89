//! `Report`'s `Serialize` has a consumer, `main`; `Unread`'s has none, so
//! scripts/derive_scan.sh must report exactly that one.

use serde::Serialize;

/// Serialised by `main`.
#[derive(Debug, Serialize)]
struct Report {
    packets: u64,
}

/// Never serialised. Its derive list spans lines, as rustfmt writes a long
/// one.
#[derive(
    Debug,
    Serialize,
)]
struct Unread {
    packets: u64,
}

fn main() {
    let report = Report { packets: 3 };
    println!("{:?}", serde::Serialize::to_value(&report));
    let unread = Unread { packets: 4 };
    println!("{}", unread.packets);
}
