//! Sliced == per-example equivalence for the batched inference plane.
//!
//! The contract the whole scoring plane rests on: for every member
//! classifier and for the ensemble's majority vote, `predict_slice` over an
//! arbitrary packing of rows is **bit-identical** to calling the scalar
//! `predict`/`predict_majority` per row — the blocked kernels only unroll
//! across output rows, never inside one dot product, so no floating-point
//! summation order changes. The slices here are cut at arbitrary
//! LCG-derived boundaries and the datasets are deliberately noisy enough
//! that the members disagree on a fraction of rows (exercising the gathered
//! third-member arbiter pass and its tie-breaks).

use classifier::bayes::GaussianNaiveBayes;
use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig, VoteScratch};
use classifier::kernel::Scratch;
use classifier::nn::{NeuralNet, NnConfig};
use classifier::svm::{LinearSvm, SvmConfig};
use classifier::Classifier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use classifier::dataset::Dataset;

/// A noisy clustered dataset: wide spread, so trained members genuinely
/// disagree near the cluster boundaries.
fn noisy_dataset(seed: u64, classes: usize, per_class: usize, dim: usize, spread: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    for c in 0..classes {
        for _ in 0..per_class {
            let features: Vec<f64> = (0..dim)
                .map(|f| {
                    let center = if f == c % dim {
                        4.0 * (c as f64 + 1.0)
                    } else {
                        0.0
                    };
                    center + rng.gen_range(-spread..spread)
                })
                .collect();
            data.push(features, c);
        }
    }
    data
}

/// Query rows scattered across (and between) the clusters.
fn query_rows(seed: u64, n: usize, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    (0..n * dim).map(|_| rng.gen_range(-6.0..18.0)).collect()
}

/// Expands a seed into arbitrary slice lengths via an LCG (the vendored
/// proptest shim has no collection strategy).
fn chunk_sizes(seed: u64, total: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut left = total;
    while left > 0 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let take = ((state >> 33) as usize % 7 + 1).min(left);
        sizes.push(take);
        left -= take;
    }
    sizes
}

fn assert_member_slices_match(member: &dyn Classifier, rows: &[f64], dim: usize, seed: u64) {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let mut offset = 0;
    for size in chunk_sizes(seed, rows.len() / dim) {
        let slice = &rows[offset * dim..(offset + size) * dim];
        member.predict_slice(slice, dim, &mut out, &mut scratch);
        assert_eq!(out.len(), size, "{}: wrong output count", member.name());
        for (i, &got) in out.iter().enumerate() {
            let row = &slice[i * dim..(i + 1) * dim];
            assert_eq!(
                got,
                member.predict(row),
                "{}: slice prediction diverged at row {}",
                member.name(),
                offset + i
            );
        }
        offset += size;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_member_slices_bit_identically(
        seed in 0u64..500,
        classes in 2usize..6,
        dim in 2usize..8,
        // Both sides of the MLP's on-stack hidden layer limit (64 units).
        hidden_units in 1usize..100,
    ) {
        let data = noisy_dataset(seed, classes, 25, dim, 5.0);
        let normalized = data.normalized(&data.fit_normalizer());
        let svm = LinearSvm::train(&normalized, &SvmConfig { epochs: 8, ..SvmConfig::default() }, seed);
        let nn = NeuralNet::train(
            &normalized,
            &NnConfig { epochs: 4, hidden_units, ..NnConfig::default() },
            seed ^ 0x55,
        );
        let bayes = GaussianNaiveBayes::train(&normalized);
        let rows = query_rows(seed, 60, dim);
        assert_member_slices_match(&svm, &rows, dim, seed);
        assert_member_slices_match(&nn, &rows, dim, seed);
        assert_member_slices_match(&bayes, &rows, dim, seed);
    }

    #[test]
    fn ensemble_majority_slice_matches_the_scalar_vote(
        seed in 0u64..500,
        classes in 2usize..6,
        dim in 2usize..8,
    ) {
        // High spread => the members disagree on a healthy fraction of the
        // query rows, so the arbiter pass and the vote tie-breaks are
        // genuinely exercised.
        let data = noisy_dataset(seed, classes, 25, dim, 6.0);
        let config = EnsembleConfig {
            svm: SvmConfig { epochs: 8, ..SvmConfig::default() },
            nn: NnConfig { epochs: 4, ..NnConfig::default() },
            ..EnsembleConfig::default()
        };
        let ensemble = AdversaryEnsemble::train(&data, &config);
        let rows = query_rows(seed, 80, dim);
        let mut scratch = VoteScratch::new();
        let mut out = Vec::new();
        let mut offset = 0;
        for size in chunk_sizes(seed, 80) {
            let slice = &rows[offset * dim..(offset + size) * dim];
            ensemble.predict_majority_slice(slice, dim, &mut out, &mut scratch);
            for (i, &got) in out.iter().enumerate() {
                let row = &slice[i * dim..(i + 1) * dim];
                assert_eq!(got, ensemble.predict_majority(row), "row {}", offset + i);
            }
            offset += size;
        }
    }
}
