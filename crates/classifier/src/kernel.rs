//! Linear kernels shared by the classifiers and the frozen adversary's
//! inference plan.
//!
//! Every linear layer of the SVM and the MLP is a weight matrix times one
//! feature vector, plus a bias. The models store each layer as one flat
//! row-major `rows × dim` `Vec<f64>`, which is what training updates row by
//! row and what [`matvec_bias`] reads. Inference on a frozen model reads the
//! same weights packed into **lane panels** instead:
//!
//! * [`pack_panels`] — [`PANEL`] output rows per panel, stored column by
//!   column (the `PANEL` weights of one input column are adjacent), with the
//!   last panel zero-padded to full width. Packing happens once, when the
//!   model is frozen.
//! * [`matvec_panels`] — [`PANEL`] independent lane accumulators per panel,
//!   each loaded `x[j]` shared by all of them, so the inner loop is a
//!   vector multiply-add across lanes rather than a scalar chain per row.
//!   The lanes are across *output rows*, never within one dot product: every
//!   lane still sums its row's products strictly left to right from `0.0`,
//!   exactly like the scalar
//!   `w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>()` reference, so every
//!   output is **bit-identical** to [`matvec_bias`] (proptested in
//!   `tests/panel_equivalence.rs`).

/// `out[r] = Σ_j weights[r·w_dim + j] · x[j] + biases[r]` for every row.
///
/// `weights` is a flat row-major `rows × w_dim` matrix with
/// `rows = biases.len()`; the dot product runs over
/// `min(w_dim, x.len())` columns (matching the truncating `zip` of the
/// scalar reference). Rows are processed in blocks of four with independent
/// accumulators — each accumulator sums strictly left to right from `0.0`,
/// so every `out[r]` is bit-identical to the scalar `dot(w_r, x) + b_r`.
///
/// # Panics
///
/// Panics if `out.len() < biases.len()` or `weights` is shorter than
/// `rows × w_dim`.
pub fn matvec_bias(weights: &[f64], biases: &[f64], x: &[f64], w_dim: usize, out: &mut [f64]) {
    let rows = biases.len();
    assert!(
        weights.len() >= rows * w_dim,
        "weight matrix too short for {rows} rows of {w_dim}"
    );
    let cols = w_dim.min(x.len());
    let x = &x[..cols];
    let mut r = 0;
    while r + 4 <= rows {
        let w0 = &weights[r * w_dim..r * w_dim + cols];
        let w1 = &weights[(r + 1) * w_dim..(r + 1) * w_dim + cols];
        let w2 = &weights[(r + 2) * w_dim..(r + 2) * w_dim + cols];
        let w3 = &weights[(r + 3) * w_dim..(r + 3) * w_dim + cols];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for j in 0..cols {
            let xj = x[j];
            a0 += w0[j] * xj;
            a1 += w1[j] * xj;
            a2 += w2[j] * xj;
            a3 += w3[j] * xj;
        }
        out[r] = a0 + biases[r];
        out[r + 1] = a1 + biases[r + 1];
        out[r + 2] = a2 + biases[r + 2];
        out[r + 3] = a3 + biases[r + 3];
        r += 4;
    }
    while r < rows {
        let w = &weights[r * w_dim..r * w_dim + cols];
        let mut acc = 0.0f64;
        for j in 0..cols {
            acc += w[j] * x[j];
        }
        out[r] = acc + biases[r];
        r += 1;
    }
}

/// Output rows per lane panel (see [`pack_panels`]).
pub const PANEL: usize = 8;

/// Packs a flat row-major `rows × w_dim` weight matrix into lane panels for
/// [`matvec_panels`]: panel `p` holds rows `PANEL·p .. PANEL·p + PANEL`
/// column by column, so `panels[(p·w_dim + j)·PANEL + l]` is the weight of
/// row `PANEL·p + l` at column `j`. Lanes past the last row are zero.
///
/// # Panics
///
/// Panics if `weights` is shorter than `rows × w_dim`.
pub fn pack_panels(weights: &[f64], rows: usize, w_dim: usize) -> Vec<f64> {
    assert!(
        weights.len() >= rows * w_dim,
        "weight matrix too short for {rows} rows of {w_dim}"
    );
    let mut panels = vec![0.0; rows.div_ceil(PANEL) * PANEL * w_dim];
    for (r, row) in weights.chunks_exact(w_dim.max(1)).take(rows).enumerate() {
        let panel = &mut panels[r / PANEL * PANEL * w_dim..];
        for (j, &w) in row.iter().take(w_dim).enumerate() {
            panel[j * PANEL + r % PANEL] = w;
        }
    }
    panels
}

/// [`matvec_bias`] over a matrix packed by [`pack_panels`]:
/// `out[r] = Σ_j w[r][j] · x[j] + biases[r]` for `rows = biases.len()`,
/// with the dot product over `min(w_dim, x.len())` columns. Each of a
/// panel's [`PANEL`] lanes sums its row's products left to right from
/// `0.0`, so every `out[r]` is bit-identical to `matvec_bias`.
///
/// # Panics
///
/// Panics if `out.len() < biases.len()` or `panels` holds fewer panels than
/// the rows need.
pub fn matvec_panels(panels: &[f64], biases: &[f64], x: &[f64], w_dim: usize, out: &mut [f64]) {
    assert!(out.len() >= biases.len(), "output shorter than the rows");
    let stride = PANEL * w_dim;
    for (p, (bias, out)) in biases.chunks(PANEL).zip(out.chunks_mut(PANEL)).enumerate() {
        let (columns, _) = panels[p * stride..(p + 1) * stride].as_chunks::<PANEL>();
        let mut acc = [0.0f64; PANEL];
        for (column, &xj) in columns.iter().zip(x) {
            for (a, w) in acc.iter_mut().zip(column) {
                *a += w * xj;
            }
        }
        for ((o, a), b) in out.iter_mut().zip(acc).zip(bias) {
            *o = a + b;
        }
    }
}

/// `y[i] += alpha · x[i]` over `min(y.len(), x.len())` elements.
///
/// With `alpha = -step` this is bit-identical to the scalar
/// `y[i] -= step * x[i]` update (IEEE negation is exact), which is how the
/// gradient-apply paths use it.
pub fn axpy(y: &mut [f64], x: &[f64], alpha: f64) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn matvec_matches_the_scalar_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for rows in [1usize, 2, 3, 4, 5, 6, 7, 8, 11] {
            for dim in [1usize, 2, 17, 18, 32] {
                let weights: Vec<f64> = (0..rows * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let biases: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let mut out = vec![0.0; rows];
                matvec_bias(&weights, &biases, &x, dim, &mut out);
                for r in 0..rows {
                    let reference = scalar_dot(&weights[r * dim..(r + 1) * dim], &x) + biases[r];
                    assert_eq!(out[r].to_bits(), reference.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    fn matvec_truncates_like_zip_on_short_inputs() {
        // A 2-column weight row against a 1-element x must use one term,
        // exactly like the zip-based scalar dot.
        let weights = [1.0, 100.0, 2.0, 200.0];
        let biases = [0.5, 0.25];
        let mut out = [0.0; 2];
        matvec_bias(&weights, &biases, &[3.0], 2, &mut out);
        assert_eq!(out, [3.5, 6.25]);
    }

    #[test]
    fn axpy_matches_the_subtracting_update() {
        let mut rng = StdRng::seed_from_u64(13);
        let x: Vec<f64> = (0..40).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y0: Vec<f64> = (0..40).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let step = 0.0375;
        let mut via_axpy = y0.clone();
        axpy(&mut via_axpy, &x, -step);
        let mut via_sub = y0;
        for (yi, &xi) in via_sub.iter_mut().zip(&x) {
            *yi -= step * xi;
        }
        for (a, b) in via_axpy.iter().zip(&via_sub) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
