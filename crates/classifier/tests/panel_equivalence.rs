//! Lane panels == row-major kernel, bit for bit.
//!
//! The frozen adversary's inference plan scores every window through
//! `kernel::matvec_panels` over weights packed once by
//! `kernel::pack_panels`; its votes are only the members' own votes if every
//! panel output equals `kernel::matvec_bias` exactly. Row counts cover one
//! partial panel, whole panels and whole panels plus a partial one; input
//! vectors are shorter than, as wide as and wider than the weight rows, so
//! the truncating `zip` of the scalar reference is covered on both sides.

use classifier::kernel::{matvec_bias, matvec_panels, pack_panels, PANEL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn panels_match_the_row_major_kernel_bitwise(
        seed in 0u64..1_000_000,
        rows in 1usize..=40,
        w_dim in 1usize..=40,
        short_by in 1usize..=8,
        long_by in 1usize..=8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..rows * w_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let biases: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let panels = pack_panels(&weights, rows, w_dim);
        prop_assert_eq!(panels.len(), rows.div_ceil(PANEL) * PANEL * w_dim);
        for x_len in [w_dim.saturating_sub(short_by), w_dim, w_dim + long_by] {
            let x: Vec<f64> = (0..x_len).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut want = vec![0.0; rows];
            matvec_bias(&weights, &biases, &x, w_dim, &mut want);
            // A sentinel past the rows: the padding lanes must not spill.
            let mut got = vec![f64::NAN; rows + 1];
            matvec_panels(&panels, &biases, &x, w_dim, &mut got);
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let got_rows: Vec<u64> = got[..rows].iter().map(|v| v.to_bits()).collect();
            prop_assert!(
                got_rows == want,
                "x of {x_len} against rows of {w_dim}: {got_rows:?} != {want:?}"
            );
            prop_assert!(got[rows].is_nan(), "a padding lane was written");
        }
    }
}

#[test]
fn padding_lanes_are_zero() {
    // 3 rows of 2 in one panel: lanes 3.. of every column are padding.
    let panels = pack_panels(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
    let mut want = vec![0.0; 2 * PANEL];
    want[..3].copy_from_slice(&[1.0, 3.0, 5.0]);
    want[PANEL..PANEL + 3].copy_from_slice(&[2.0, 4.0, 6.0]);
    assert_eq!(panels, want);
}
