//! The SimE Selection operator.
//!
//! Selection partitions the solution into the selection set `S` (cells that
//! will be ripped up and re-allocated) and the partial solution `Φp` of the
//! remaining cells. Each cell is considered independently: following
//! Figure 1 of the paper, cell `i` is selected when
//! `Random > min(gᵢ + B, 1)`, so poorly placed cells (low goodness) are
//! selected with high probability while well-placed cells still have a small,
//! non-zero chance of being selected — the source of SimE's hill-climbing
//! ability.
//!
//! The paper uses the *biasless* selection function of Sait & Khan \[9\], which
//! removes the problem-dependent tuning of `B` by replacing it with the
//! negative deviation of the current average goodness from 1; both schemes
//! are provided here.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vlsi_netlist::CellId;

/// How the selection bias `B` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SelectionScheme {
    /// Classical SimE selection with a fixed bias `B` (may be negative).
    FixedBias(f64),
    /// Biasless selection \[9\]: the bias adapts each iteration to
    /// `B = −(1 − ḡ)` where `ḡ` is the current average goodness, so that the
    /// expected selection-set size tracks how far the solution is from
    /// convergence without manual tuning.
    #[default]
    Biasless,
}

impl SelectionScheme {
    /// The effective bias used for an iteration with average goodness
    /// `avg_goodness`.
    pub fn effective_bias(self, avg_goodness: f64) -> f64 {
        match self {
            SelectionScheme::FixedBias(b) => b,
            SelectionScheme::Biasless => -(1.0 - avg_goodness.clamp(0.0, 1.0)),
        }
    }
}

/// Average goodness `ḡ` over the cells not marked in `frozen` (every cell
/// when `frozen` is empty); 0 when no cell is selectable. Frozen entries are
/// never read, so their values may be unspecified.
pub fn selectable_average(goodness: &[f64], frozen: &[bool]) -> f64 {
    let (sum, count) = goodness
        .iter()
        .enumerate()
        .filter(|&(i, _)| frozen.is_empty() || !frozen[i])
        .fold((0.0, 0usize), |(sum, count), (_, &g)| (sum + g, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Runs the selection operator over all cells.
///
/// `goodness[i]` is the combined goodness of cell `i`. Returns the selection
/// set `S` in cell-id order. Cells listed in `frozen` (fixed cells, and the
/// cells outside the local partition of the Type II row decomposition) are
/// never selected and do not count towards the biasless average; pass an
/// empty slice otherwise.
pub fn select<R: Rng + ?Sized>(
    goodness: &[f64],
    scheme: SelectionScheme,
    rng: &mut R,
    frozen: &[bool],
) -> Vec<CellId> {
    let bias = scheme.effective_bias(selectable_average(goodness, frozen));
    let mut selected = Vec::new();
    for (i, &g) in goodness.iter().enumerate() {
        if !frozen.is_empty() && frozen[i] {
            continue;
        }
        let threshold = (g + bias).clamp(0.0, 1.0);
        if rng.gen::<f64>() > threshold {
            selected.push(CellId::from(i));
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn low_goodness_cells_are_selected_more_often() {
        let goodness = vec![0.05, 0.95];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            for c in select(&goodness, SelectionScheme::FixedBias(0.0), &mut rng, &[]) {
                counts[c.index()] += 1;
            }
        }
        assert!(
            counts[0] > counts[1] * 5,
            "bad cell selected {} times, good cell {} times",
            counts[0],
            counts[1]
        );
    }

    #[test]
    fn good_cells_still_have_nonzero_selection_probability() {
        let goodness = vec![0.9];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..5000 {
            hits += select(&goodness, SelectionScheme::FixedBias(0.0), &mut rng, &[]).len();
        }
        assert!(hits > 0, "non-determinism must allow escaping local minima");
        assert!(hits < 2500, "a well-placed cell must be selected rarely");
    }

    #[test]
    fn positive_bias_reduces_selection_size() {
        let goodness = vec![0.5; 200];
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = ChaCha8Rng::seed_from_u64(3);
        let none = select(&goodness, SelectionScheme::FixedBias(0.0), &mut rng_a, &[]);
        let biased = select(&goodness, SelectionScheme::FixedBias(0.3), &mut rng_b, &[]);
        assert!(biased.len() < none.len());
    }

    #[test]
    fn biasless_bias_tracks_average_goodness() {
        assert_eq!(SelectionScheme::Biasless.effective_bias(1.0), 0.0);
        assert!((SelectionScheme::Biasless.effective_bias(0.6) + 0.4).abs() < 1e-12);
        assert_eq!(SelectionScheme::FixedBias(0.2).effective_bias(0.1), 0.2);
    }

    #[test]
    fn biasless_average_ignores_frozen_cells() {
        // Frozen entries (fixed cells, other ranks' cells) may hold anything;
        // the biasless average is taken over the selectable cells only.
        let goodness = vec![0.2, f64::NAN, 0.6, 7.0];
        let frozen = vec![false, true, false, true];
        assert!((selectable_average(&goodness, &frozen) - 0.4).abs() < 1e-12);
        assert!((selectable_average(&goodness[..1], &[]) - 0.2).abs() < 1e-12);
        assert_eq!(selectable_average(&goodness, &[true; 4]), 0.0);
    }

    #[test]
    fn biasless_selects_more_aggressively_early() {
        // With low average goodness the biasless scheme lowers the threshold,
        // selecting more cells than the zero-bias scheme.
        let goodness = vec![0.3; 500];
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let biasless = select(&goodness, SelectionScheme::Biasless, &mut rng_a, &[]);
        let fixed = select(&goodness, SelectionScheme::FixedBias(0.0), &mut rng_b, &[]);
        assert!(biasless.len() > fixed.len());
    }

    #[test]
    fn frozen_cells_are_never_selected() {
        let goodness = vec![0.0; 100];
        let mut frozen = vec![false; 100];
        frozen[..50].fill(true);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let selected = select(
            &goodness,
            SelectionScheme::FixedBias(0.0),
            &mut rng,
            &frozen,
        );
        assert!(!selected.is_empty());
        assert!(selected.iter().all(|c| c.index() >= 50));
    }

    #[test]
    fn selection_is_deterministic_for_a_seed() {
        let goodness: Vec<f64> = (0..100).map(|i| (i as f64) / 100.0).collect();
        let a = select(
            &goodness,
            SelectionScheme::Biasless,
            &mut ChaCha8Rng::seed_from_u64(11),
            &[],
        );
        let b = select(
            &goodness,
            SelectionScheme::Biasless,
            &mut ChaCha8Rng::seed_from_u64(11),
            &[],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn results_are_sorted_by_cell_id() {
        let goodness = vec![0.2; 50];
        let selected = select(
            &goodness,
            SelectionScheme::FixedBias(0.0),
            &mut ChaCha8Rng::seed_from_u64(13),
            &[],
        );
        let mut sorted = selected.clone();
        sorted.sort_unstable();
        assert_eq!(selected, sorted);
    }
}
