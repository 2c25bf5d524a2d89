//! Fixture for scripts/pub_scan_selftest.sh (never compiled): each method
//! of `Counter` exercises one rule of scripts/pub_scan.sh.

/// A counter; examples/demo.rs names it, so it is used.
pub struct Counter {
    total: u64,
}

impl Counter {
    /// Called as `Counter::new()` by the example: used.
    pub fn new() -> Self {
        Counter { total: 0 }
    }

    /// Shares its name with the field, which is only read as `self.total`
    /// and written as the key `total:`: reported.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Called as `.bump(` by the example: used.
    pub fn bump(&mut self) {
        self.total += 1;
    }

    /// Passed as `Counter::double` by the example: used.
    pub fn double(value: u64) -> u64 {
        value * 2
    }

    /// Called only by the tests below: reported.
    pub fn reset(&mut self) {
        self.total = 0;
    }

    /// Called by nothing; the self-test allowlists it.
    pub fn spare(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_the_total() {
        let mut counter = Counter::new();
        counter.bump();
        counter.reset();
        assert_eq!(counter.total(), 0);
    }
}
