//! Shared by the bounds crate's integration tests: random degree-constraint
//! sets, and the duality certificate that checks an LP solve without a second
//! solver.

use wcoj_bounds::lp::{LpError, Optimum};
use wcoj_query::{ConstraintSet, DegreeConstraint, VarId};
use wcoj_workloads::SplitMix64;

/// One LP row: its bound `b_i` and its entries `(j, A_ij)`.
pub type Row = (f64, Vec<(usize, f64)>);

pub const TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * b.abs().max(1.0)
}

fn dot(entries: &[(usize, f64)], x: &[f64]) -> f64 {
    entries.iter().map(|&(j, a)| a * x[j]).sum()
}

/// Check `solved` against `max c·x  s.t.  A x ≤ b, x ≥ 0` by its certificate
/// alone, whichever pivots found it:
/// * an optimum passes when `x` is primal feasible, `y` is dual feasible
///   (`y ≥ 0`, `Aᵀy ≥ c`) and `c·x = b·y = objective` within
///   `TOL · max(1, |objective|)`;
/// * `Unbounded` passes when its ray has `d ≥ 0`, `A d ≤ 0` and `c·d > 0`.
///
/// Returns the objective, or `None` for a certified ray.
pub fn certify(
    c: &[f64],
    rows: &[Row],
    solved: &Result<Optimum, LpError>,
    label: &str,
) -> Option<f64> {
    let opt = match solved {
        Ok(opt) => opt,
        Err(LpError::Unbounded { ray }) => {
            assert_eq!(ray.len(), c.len(), "{label}");
            assert!(ray.iter().all(|&d| d >= 0.0), "{label}: ray {ray:?}");
            for (_, entries) in rows {
                assert!(
                    dot(entries, ray) <= TOL,
                    "{label}: ray {ray:?} leaves {entries:?}"
                );
            }
            let gain: f64 = c.iter().zip(ray).map(|(c, d)| c * d).sum();
            assert!(gain > TOL, "{label}: ray {ray:?} gains {gain}");
            return None;
        }
        Err(e) => panic!("{label}: {e}"),
    };
    let (x, y) = (&opt.primal, &opt.dual);
    assert_eq!((x.len(), y.len()), (c.len(), rows.len()), "{label}");
    // primal feasibility
    assert!(x.iter().all(|&v| v >= -TOL), "{label}: x {x:?}");
    for (b, entries) in rows {
        let load = dot(entries, x);
        assert!(
            load <= b + TOL * b.max(1.0),
            "{label}: {entries:?} loads {load} > {b}"
        );
    }
    // dual feasibility
    assert!(y.iter().all(|&v| v >= -TOL), "{label}: y {y:?}");
    let mut priced = vec![0.0; c.len()];
    for ((_, entries), y) in rows.iter().zip(y) {
        for &(j, a) in entries {
            priced[j] += a * y;
        }
    }
    for (j, (p, c)) in priced.iter().zip(c).enumerate() {
        assert!(
            *p >= c - TOL * c.abs().max(1.0),
            "{label}: column {j} priced {p} < {c}"
        );
    }
    // strong duality
    let cx: f64 = c.iter().zip(x).map(|(c, x)| c * x).sum();
    let by: f64 = rows.iter().zip(y).map(|((b, _), y)| b * y).sum();
    assert!(
        close(cx, opt.objective) && close(by, opt.objective),
        "{label}: c·x {cx}, b·y {by}, objective {}",
        opt.objective
    );
    Some(opt.objective)
}

/// A random constraint set over `n` variables: with `acyclic`, every
/// constraint's `X` precedes its `Y − X` in one random order; otherwise the
/// variables are drawn freely and `X` is never empty, so `G_DC` often has a
/// cycle. Every bound is at least 1.
pub fn random_constraints(n: usize, acyclic: bool, rng: &mut SplitMix64) -> ConstraintSet {
    let mut order: Vec<VarId> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut dc = ConstraintSet::new();
    for _ in 0..1 + rng.below(2 * n as u64) {
        let bits = 1 + rng.below(16);
        let bound = match rng.below(4) {
            0 => 1,
            _ => 1 + rng.below(1 << bits),
        };
        // a cyclic draw conditions on a non-empty X, so G_DC gets edges
        let len = if acyclic {
            1 + rng.below(n.min(3) as u64) as usize
        } else {
            2 + rng.below(n.min(3) as u64 - 1) as usize
        };
        let mut y: Vec<VarId> = Vec::new();
        while y.len() < len {
            let v = order[rng.below(n as u64) as usize];
            if !y.contains(&v) {
                y.push(v);
            }
        }
        // X: a proper prefix of Y — by `order` when acyclic
        if acyclic {
            y.sort_by_key(|v| order.iter().position(|u| u == v));
        }
        let x_len = if acyclic {
            rng.below(len as u64)
        } else {
            1 + rng.below(len as u64 - 1)
        };
        let x = y[..x_len as usize].to_vec();
        dc.push(DegreeConstraint::new(x, y, bound));
    }
    dc
}
