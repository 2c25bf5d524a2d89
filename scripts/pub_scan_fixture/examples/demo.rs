//! The fixture's only caller (see crates/demo/src/lib.rs).

use demo::Counter;

fn main() {
    let mut counter = Counter::new();
    counter.bump();
    let doubled: Vec<u64> = [1, 2].into_iter().map(Counter::double).collect();
    println!("{doubled:?}");
}
