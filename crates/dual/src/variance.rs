//! Proposition 5.8: the exact variance of the convergence value `F`.
//!
//! For the NodeModel on a `d`-regular graph with `Avg(ξ(0)) = 0`,
//!
//! `Var(F) = (μ0 − μ+)·Σ_u ξ_u² + (μ1 − μ+)·Σ_{(u,v)∈E⁺} ξ_u ξ_v ± 1/n⁵`,
//!
//! where `E⁺` is the set of *directed* edges and `μ0, μ1, μ+` come from
//! Lemma 5.7. Since `F` merely shifts under a constant shift of `ξ(0)`,
//! the predictor centers the input first, making it valid for any `ξ(0)`.
//!
//! **Reproduction note.** The paper's proof of Theorem 2.2(2) states the
//! Θ-envelope constants as `2k(d−1)(1−α)/(n²(3dk+d−3k))` (upper) and
//! `2(1−α)(2dk−d−k)/(n²(3dk+d−3k))` (lower). Those do not follow from the
//! μ-values of Lemma 5.7: substituting gives
//! `upper = [(μ0−μ+) − d(μ1−μ+)]·‖ξ‖² = 2k(d−1)(1−α)·ℓ·‖ξ‖²` and
//! `lower = [(μ0−μ+) + d(μ1−μ+)]·‖ξ‖² = 2(1−α)(d−k)·ℓ·‖ξ‖²`, with
//! `ℓ ≠ 1/(n²(3dk+d−3k))` in general. We implement the μ-based envelope
//! (which is what Eqs. (23)/(25) actually derive) and validate it
//! empirically in experiment P58, whose table prints both envelopes side by
//! side (README.md, § Experiments, runs it).

use crate::error::DualError;
use crate::qchain::QChain;

/// Variance prediction for the convergence value `F`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariancePrediction {
    /// The exact quadratic form of Prop. 5.8 (up to the `±1/n⁵` mixing
    /// remainder).
    pub exact: f64,
    /// Θ-envelope upper bound `[(μ0−μ+) − d(μ1−μ+)]·‖ξ‖²` — the worst case
    /// of the edge term.
    pub upper: f64,
    /// Θ-envelope lower bound `[(μ0−μ+) + d(μ1−μ+)]·‖ξ‖²`.
    pub lower: f64,
    /// The `1/n⁵` mixing remainder, for reporting.
    pub remainder: f64,
}

/// Predicts `Var(F)` for the NodeModel `(α, k)` on the regular graph
/// underlying `chain`, for initial values `xi0` (centered internally).
///
/// # Errors
///
/// [`DualError::LengthMismatch`] if `xi0.len()` differs from the node
/// count.
pub fn predict_variance(chain: &QChain<'_>, xi0: &[f64]) -> Result<VariancePrediction, DualError> {
    let g = chain.graph();
    let n = g.n();
    if xi0.len() != n {
        return Err(DualError::LengthMismatch {
            got: xi0.len(),
            expected: n,
        });
    }
    let mean = xi0.iter().sum::<f64>() / n as f64;
    let xi: Vec<f64> = xi0.iter().map(|v| v - mean).collect();

    let classes = chain.closed_form();
    let d = chain.degree() as f64;
    let gap0 = classes.mu0 - classes.mu_plus;
    let gap1 = classes.mu1 - classes.mu_plus;

    let norm_sq: f64 = xi.iter().map(|v| v * v).sum();
    // Σ over directed edges = 2 Σ over undirected edges.
    let edge_term: f64 = 2.0
        * g.edges()
            .map(|(u, v)| xi[u as usize] * xi[v as usize])
            .sum::<f64>();

    let exact = gap0 * norm_sq + gap1 * edge_term;
    let upper = (gap0 - d * gap1) * norm_sq;
    let lower = (gap0 + d * gap1) * norm_sq;
    let remainder = (n as f64).powi(-5);
    Ok(VariancePrediction {
        exact,
        upper,
        lower,
        remainder,
    })
}

/// Exact `Var(F)` for `k = 1` in fully closed form:
///
/// `Var(F) = (1−α)·‖ξ_c‖² / ( n(αn + 1 − α) )`,
///
/// where `‖ξ_c‖²` is the squared norm of the *centered* initial values.
/// This is independent of the (regular) graph — the structure-independence
/// highlighted in the paper's introduction. `d` does not appear.
pub fn variance_k1_closed_form(n: usize, alpha: f64, centered_norm_sq: f64) -> f64 {
    let nf = n as f64;
    (1.0 - alpha) * centered_norm_sq / (nf * (alpha * nf + 1.0 - alpha))
}

/// Centers `xi0` and returns `‖ξ_c‖²` — the `‖ξ(0)‖²` the paper's bounds
/// refer to after the w.l.o.g. `Avg(0) = 0` normalization.
pub fn centered_norm_sq(xi0: &[f64]) -> f64 {
    let n = xi0.len() as f64;
    let mean = xi0.iter().sum::<f64>() / n;
    xi0.iter().map(|v| (v - mean) * (v - mean)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;

    #[test]
    fn rejects_length_mismatch() {
        let g = generators::cycle(5).unwrap();
        let q = QChain::new(&g, 0.5, 1).unwrap();
        assert!(matches!(
            predict_variance(&q, &[1.0, 2.0]),
            Err(DualError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn exact_within_envelope() {
        let g = generators::petersen();
        for &k in &[1usize, 2, 3] {
            let q = QChain::new(&g, 0.5, k).unwrap();
            let xi0: Vec<f64> = (0..10).map(|i| f64::from(i) - 4.5).collect();
            let p = predict_variance(&q, &xi0).unwrap();
            assert!(
                p.lower - 1e-15 <= p.exact && p.exact <= p.upper + 1e-15,
                "k={k}: {} <= {} <= {} violated",
                p.lower,
                p.exact,
                p.upper
            );
            assert!(p.exact > 0.0);
        }
    }

    #[test]
    fn k1_exact_matches_closed_form_and_ignores_structure() {
        // For k = 1 the edge term vanishes and Var(F) depends only on
        // (n, α, ‖ξ‖²): the cycle and the complete graph agree exactly.
        let xi0: Vec<f64> = (0..8).map(|i| f64::from(i) * 1.5 - 2.0).collect();
        let norm = centered_norm_sq(&xi0);

        let cy = generators::cycle(8).unwrap();
        let kn = generators::complete(8).unwrap();
        for alpha in [0.25, 0.5, 0.75] {
            let p_cy = predict_variance(&QChain::new(&cy, alpha, 1).unwrap(), &xi0).unwrap();
            let p_kn = predict_variance(&QChain::new(&kn, alpha, 1).unwrap(), &xi0).unwrap();
            let closed = variance_k1_closed_form(8, alpha, norm);
            assert!(
                (p_cy.exact - closed).abs() < 1e-15,
                "cycle vs closed form: {} vs {closed}",
                p_cy.exact
            );
            assert!(
                (p_kn.exact - closed).abs() < 1e-15,
                "complete vs closed form: {} vs {closed}",
                p_kn.exact
            );
        }
    }

    #[test]
    fn centering_is_internal() {
        // Shifting all initial values must not change the prediction.
        let g = generators::hypercube(3).unwrap();
        let q = QChain::new(&g, 0.5, 2).unwrap();
        let xi0: Vec<f64> = (0..8).map(f64::from).collect();
        let shifted: Vec<f64> = xi0.iter().map(|v| v + 100.0).collect();
        let a = predict_variance(&q, &xi0).unwrap();
        let b = predict_variance(&q, &shifted).unwrap();
        assert!((a.exact - b.exact).abs() < 1e-12);
        assert!((a.upper - b.upper).abs() < 1e-12);
    }

    #[test]
    fn variance_scales_as_norm_over_n_squared() {
        // Theorem 2.2(2): Var(F)·n²/‖ξ‖² stays Θ(1) as n grows.
        let mut ratios = Vec::new();
        for n in [8usize, 16, 32, 64] {
            let g = generators::cycle(n).unwrap();
            let q = QChain::new(&g, 0.5, 1).unwrap();
            let xi0: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            let p = predict_variance(&q, &xi0).unwrap();
            let norm = centered_norm_sq(&xi0);
            ratios.push(p.exact * (n * n) as f64 / norm);
        }
        for r in &ratios {
            assert!(*r > 0.5 && *r < 2.5, "normalized variance {r}");
        }
    }

    #[test]
    fn zero_variance_for_constant_initials() {
        let g = generators::complete(6).unwrap();
        let q = QChain::new(&g, 0.5, 2).unwrap();
        let p = predict_variance(&q, &[3.0; 6]).unwrap();
        assert_eq!(p.exact, 0.0);
        assert_eq!(p.upper, 0.0);
    }

    #[test]
    fn alpha_extremes_change_variance_monotonically() {
        // Larger α (more self-weight) slows mixing of mass but reduces the
        // per-step jump; the k=1 closed form is decreasing in α.
        let norm = 10.0;
        let v25 = variance_k1_closed_form(16, 0.25, norm);
        let v50 = variance_k1_closed_form(16, 0.50, norm);
        let v75 = variance_k1_closed_form(16, 0.75, norm);
        assert!(v25 > v50 && v50 > v75, "{v25} {v50} {v75}");
    }
}
