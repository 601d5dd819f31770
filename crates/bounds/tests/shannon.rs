//! The Shannon-cone LPs on random degree constraints: the polymatroid bound's
//! duals are the certificates the paper reads off them.
//!
//! Over seeded constraint sets of 2 to 6 variables, for every finite
//! `polymatroid_bound`:
//! * the duals price the degree constraints to the bound,
//!   `Σ δ_{Y|X} · log2 N_{Y|X} = log2_bound` (equation (73));
//! * `DeltaVector::from_constraint_duals` is a Shannon-flow inequality
//!   (Proposition 5.4), and `0.9 δ` is not when the bound is positive (the
//!   optimal `h*` is tight on every priced row);
//! * `modular_bound` equals the polymatroid bound when `G_DC` is acyclic
//!   (Proposition 4.4);
//! * every Shannon solve — the polymatroid LP (68) and each flow test — passes
//!   [`common::certify`], and an infinite bound is an LP with a certified ray.

mod common;

use common::{certify, close, random_constraints};
use wcoj_bounds::flow::{flow_lp, is_shannon_flow_inequality, DeltaVector};
use wcoj_bounds::modular::modular_bound;
use wcoj_bounds::polymatroid::{polymatroid_bound, polymatroid_lp};
use wcoj_bounds::BoundError;
use wcoj_query::{ConstraintSet, DegreeConstraint};
use wcoj_workloads::SplitMix64;

/// Whether `δ` is a Shannon-flow inequality on `n` variables, with the flow
/// LP's certificate checked.
fn is_flow(n: usize, delta: &DeltaVector, label: &str) -> bool {
    let lp = flow_lp(n, delta).unwrap();
    let objective = certify(lp.objective(), lp.rows(), &lp.solve(), label)
        .unwrap_or_else(|| panic!("{label}: the normalized flow LP is bounded"));
    let is_flow = is_shannon_flow_inequality(n, delta).unwrap();
    assert_eq!(is_flow, objective <= 1e-7, "{label}");
    is_flow
}

#[test]
fn the_polymatroid_duals_are_certified_shannon_flows() {
    let mut rng = SplitMix64::new(0x5A77_0C0E);
    let (mut finite, mut acyclic, mut positive) = (0, 0, 0);
    for i in 0..600 {
        let n = 2 + rng.below(5) as usize;
        let mut dc: ConstraintSet = random_constraints(n, i % 2 == 0, &mut rng);
        if i % 4 >= 2 {
            // a guard over every variable, as an atom holding them all
            dc.push(DegreeConstraint::cardinality(
                (0..n).collect(),
                1 + rng.below(1 << 20),
            ));
        }
        let label = format!("{n} variables, {dc:?}");
        let lp = polymatroid_lp(n, &dc).unwrap();
        let certified = certify(lp.objective(), lp.rows(), &lp.solve(), &label);
        let bound = match polymatroid_bound(n, &dc) {
            Err(BoundError::Infinite { .. }) => {
                assert_eq!(certified, None, "{label}");
                continue;
            }
            bound => bound.unwrap_or_else(|e| panic!("{label}: {e}")),
        };
        finite += 1;
        assert_eq!(certified, Some(bound.log2_bound), "{label}");

        // (73): the degree constraints' duals price them to the bound
        let priced: f64 = (dc.iter().zip(&bound.constraint_duals))
            .map(|(c, d)| d * c.log_bound())
            .sum();
        assert!(close(priced, bound.log2_bound), "{label}: {priced}");

        // Proposition 5.4: the duals are a Shannon-flow inequality, and a tight one
        let delta = DeltaVector::from_constraint_duals(&dc, &bound.constraint_duals);
        assert!(is_flow(n, &delta, &label), "{label}: {delta:?}");
        if bound.log2_bound > 1e-6 {
            positive += 1;
            let mut short = DeltaVector::new();
            for &(x, y, d) in delta.terms() {
                short.add(x, y, 0.9 * d);
            }
            assert!(!is_flow(n, &short, &label), "{label}: {short:?}");
        }

        // Proposition 4.4: acyclic constraints collapse onto the modular LP
        if dc.is_acyclic(n) {
            acyclic += 1;
            let modular = modular_bound(n, &dc).unwrap();
            assert!(
                close(modular.log2_bound, bound.log2_bound),
                "{label}: modular {} vs {}",
                modular.log2_bound,
                bound.log2_bound
            );
        }
    }
    println!("{finite} finite, {acyclic} acyclic, {positive} positive");
    assert!(
        finite >= 250 && acyclic >= 150 && positive >= 200,
        "{finite} finite, {acyclic} acyclic, {positive} positive"
    );
}
