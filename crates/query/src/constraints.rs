//! Degree constraints (Definition 1 of the paper) and the constraint dependency graph
//! `G_DC` (Definition 3).
//!
//! A degree constraint `(X, Y, N_{Y|X})` asserts that for every binding of the
//! variables `X`, the guard relation contains at most `N_{Y|X}` distinct bindings of
//! the variables `Y`. Cardinality constraints are the special case `X = ∅`; functional
//! dependencies the special case `N_{Y|X} = 1`.

use crate::query::{ConjunctiveQuery, QueryError};
use crate::VarId;

/// A degree constraint `(X, Y, N_{Y|X})`, optionally pinned to a guard atom.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeConstraint {
    /// The conditioning variable set `X` (sorted, strict subset of `Y`).
    pub x: Vec<VarId>,
    /// The constrained variable set `Y` (sorted, strict superset of `X`).
    pub y: Vec<VarId>,
    /// The degree bound `N_{Y|X}` (a tuple count, so an integer ≥ 0).
    pub bound: u64,
    /// Index of the atom that guards this constraint, if pinned. When `None`, any atom
    /// whose variable set contains `Y` may guard it (see
    /// [`DegreeConstraint::candidate_guards`]).
    pub guard: Option<usize>,
}

impl DegreeConstraint {
    /// Create a degree constraint; `x` must be a strict subset of `y`.
    pub fn new(mut x: Vec<VarId>, mut y: Vec<VarId>, bound: u64) -> Self {
        x.sort_unstable();
        x.dedup();
        y.sort_unstable();
        y.dedup();
        assert!(
            x.iter().all(|v| y.contains(v)) && x.len() < y.len(),
            "X must be a strict subset of Y (got X={x:?}, Y={y:?})"
        );
        DegreeConstraint {
            x,
            y,
            bound,
            guard: None,
        }
    }

    /// A cardinality constraint `|R_F| <= bound` on the variable set `y`.
    pub fn cardinality(y: Vec<VarId>, bound: u64) -> Self {
        Self::new(Vec::new(), y, bound)
    }

    /// A functional dependency `X → Y` (degree bound 1 on `X ∪ Y` given `X`).
    pub fn functional_dependency(x: Vec<VarId>, y: Vec<VarId>) -> Self {
        let mut full_y = x.clone();
        full_y.extend(y);
        Self::new(x, full_y, 1)
    }

    /// Pin the constraint to a guard atom.
    pub fn with_guard(mut self, atom_index: usize) -> Self {
        self.guard = Some(atom_index);
        self
    }

    /// Whether this is a cardinality constraint (`X = ∅`).
    pub fn is_cardinality(&self) -> bool {
        self.x.is_empty()
    }

    /// Whether this is a functional dependency (`N_{Y|X} = 1` with `X ≠ ∅`).
    pub fn is_fd(&self) -> bool {
        self.bound == 1 && !self.x.is_empty()
    }

    /// Whether this is a *simple* FD `A_i → A_j` (singleton `X`, `|Y − X| = 1`,
    /// bound 1) — the class for which Corollary 5.3 applies.
    pub fn is_simple_fd(&self) -> bool {
        self.is_fd() && self.x.len() == 1 && self.y.len() == 2
    }

    /// `Y − X`, the variables whose multiplicity is bounded.
    pub fn y_minus_x(&self) -> Vec<VarId> {
        self.y
            .iter()
            .copied()
            .filter(|v| !self.x.contains(v))
            .collect()
    }

    /// `log2(N_{Y|X})` — the coefficient `n_{Y|X}` used by every LP bound. A bound of
    /// zero maps to `-inf`-avoidance: `log2(0)` is treated as `0` tuples ⇒ the query
    /// output is empty, so callers should special-case `bound == 0`; here we return
    /// `f64::NEG_INFINITY` to make that impossible to miss.
    pub fn log_bound(&self) -> f64 {
        if self.bound == 0 {
            f64::NEG_INFINITY
        } else {
            (self.bound as f64).log2()
        }
    }

    /// Atoms of `query` whose variable set contains `Y` (candidate guards).
    pub fn candidate_guards(&self, query: &ConjunctiveQuery) -> Vec<usize> {
        (0..query.atoms().len())
            .filter(|&i| {
                let f = query.atom_var_set(i);
                self.y.iter().all(|v| f.contains(v))
            })
            .collect()
    }
}

/// A set of degree constraints `DC`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    constraints: Vec<DegreeConstraint>,
}

impl ConstraintSet {
    /// An empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of constraints.
    pub fn from_constraints(constraints: Vec<DegreeConstraint>) -> Self {
        ConstraintSet { constraints }
    }

    /// Cardinality constraints for the named atoms of `query`, guarded by those atoms.
    ///
    /// This is the classical AGM setting: one `|R_F| ≤ N_F` per atom.
    pub fn all_cardinalities(
        query: &ConjunctiveQuery,
        sizes: &[(&str, u64)],
    ) -> Result<Self, QueryError> {
        let mut out = ConstraintSet::new();
        for &(name, bound) in sizes {
            let idx = query.atom_index(name)?;
            out.push(DegreeConstraint::cardinality(query.atom_var_set(idx), bound).with_guard(idx));
        }
        Ok(out)
    }

    /// Add a constraint.
    pub fn push(&mut self, c: DegreeConstraint) {
        self.constraints.push(c);
    }

    /// Add a constraint given variable *names* relative to `query`.
    pub fn push_named(
        &mut self,
        query: &ConjunctiveQuery,
        x: &[&str],
        y: &[&str],
        bound: u64,
    ) -> Result<(), QueryError> {
        let xv: Vec<VarId> = x
            .iter()
            .map(|n| query.var_id(n))
            .collect::<Result<_, _>>()?;
        let mut yv: Vec<VarId> = y
            .iter()
            .map(|n| query.var_id(n))
            .collect::<Result<_, _>>()?;
        yv.extend(xv.iter().copied());
        self.push(DegreeConstraint::new(xv, yv, bound));
        Ok(())
    }

    /// The constraints.
    pub fn constraints(&self) -> &[DegreeConstraint] {
        &self.constraints
    }

    /// Iterator over the constraints.
    pub fn iter(&self) -> impl Iterator<Item = &DegreeConstraint> {
        self.constraints.iter()
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Whether the set contains only cardinality constraints (the AGM regime, first
    /// row of Table 1).
    pub fn cardinalities_only(&self) -> bool {
        self.constraints.iter().all(|c| c.is_cardinality())
    }

    /// Whether the set contains only cardinality constraints and simple FDs (the
    /// regime of Corollary 5.3).
    pub fn cardinalities_and_simple_fds_only(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| c.is_cardinality() || c.is_simple_fd())
    }

    /// The constraint dependency graph `G_DC` (Definition 3) as an adjacency list over
    /// `n` variables: an edge `x → y` for every constraint `(X, Y)` and every
    /// `x ∈ X`, `y ∈ Y − X`.
    pub fn constraint_graph(&self, n: usize) -> Vec<Vec<VarId>> {
        constraint_graph(self, n)
    }

    /// Whether `G_DC` is acyclic (Definition 3).
    pub fn is_acyclic(&self, n: usize) -> bool {
        self.compatible_order(n).is_some()
    }

    /// A variable order compatible with `DC` (a topological order of `G_DC`), if one
    /// exists. Cardinality constraints impose no edges, so with only cardinality
    /// constraints any order is compatible.
    pub fn compatible_order(&self, n: usize) -> Option<Vec<VarId>> {
        let adj = self.constraint_graph(n);
        // Kahn's algorithm.
        let mut indeg = vec![0usize; n];
        for out in &adj {
            for &y in out {
                indeg[y] += 1;
            }
        }
        let mut queue: Vec<VarId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        queue.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            let mut newly: Vec<VarId> = Vec::new();
            for &y in &adj[v] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    newly.push(y);
                }
            }
            newly.sort_unstable();
            queue.extend(newly);
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the order `order` (a permutation of `0..n`) is compatible with `DC`:
    /// for every constraint, every variable of `X` precedes every variable of `Y − X`.
    pub fn order_is_compatible(&self, order: &[VarId]) -> bool {
        let pos: Vec<usize> = {
            let mut p = vec![usize::MAX; order.len()];
            for (i, &v) in order.iter().enumerate() {
                if v >= p.len() || p[v] != usize::MAX {
                    return false;
                }
                p[v] = i;
            }
            p
        };
        self.constraints.iter().all(|c| {
            c.x.iter().all(|&x| {
                c.y_minus_x()
                    .iter()
                    .all(|&y| pos.get(x).copied().unwrap_or(usize::MAX) < pos[y])
            })
        })
    }
}

/// The constraint dependency graph `G_DC` as an adjacency list (see
/// [`ConstraintSet::constraint_graph`]).
pub fn constraint_graph(dc: &ConstraintSet, n: usize) -> Vec<Vec<VarId>> {
    let mut adj: Vec<Vec<VarId>> = vec![Vec::new(); n];
    for c in dc.iter() {
        for &x in &c.x {
            for y in c.y_minus_x() {
                if !adj[x].contains(&y) {
                    adj[x].push(y);
                }
            }
        }
    }
    for out in &mut adj {
        out.sort_unstable();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::examples;

    #[test]
    fn constraint_classification() {
        let card = DegreeConstraint::cardinality(vec![0, 1], 100);
        assert!(card.is_cardinality());
        assert!(!card.is_fd());
        assert_eq!(card.y_minus_x(), vec![0, 1]);
        assert!((card.log_bound() - 100f64.log2()).abs() < 1e-12);

        let fd = DegreeConstraint::functional_dependency(vec![0], vec![1]);
        assert!(fd.is_fd());
        assert!(fd.is_simple_fd());
        assert!(!fd.is_cardinality());
        assert_eq!(fd.y, vec![0, 1]);
        assert_eq!(fd.bound, 1);
        assert_eq!(fd.log_bound(), 0.0);

        let wide_fd = DegreeConstraint::functional_dependency(vec![0, 1], vec![2]);
        assert!(wide_fd.is_fd());
        assert!(!wide_fd.is_simple_fd());

        let deg = DegreeConstraint::new(vec![0], vec![0, 1], 5);
        assert!(!deg.is_cardinality());
        assert!(!deg.is_fd());

        // `deg(W; A, D | C)` over W(C, A, D): X and Y arrive unsorted and
        // repeated, and are sorted and deduplicated; the guard is kept
        let unsorted = DegreeConstraint::new(vec![2, 2], vec![3, 0, 2, 0], 7).with_guard(3);
        assert_eq!(unsorted.x, vec![2]);
        assert_eq!(unsorted.y, vec![0, 2, 3]);
        assert_eq!(unsorted.y_minus_x(), vec![0, 3]);
        assert_eq!(unsorted.bound, 7);
        assert_eq!(unsorted.guard, Some(3));

        let zero = DegreeConstraint::cardinality(vec![0], 0);
        assert_eq!(zero.log_bound(), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "strict subset")]
    fn x_must_be_strict_subset() {
        let _ = DegreeConstraint::new(vec![0, 1], vec![0, 1], 3);
    }

    #[test]
    fn candidate_guards_found() {
        let q = examples::triangle();
        let c = DegreeConstraint::cardinality(vec![0, 1], 10); // {A,B}: only atom R
        assert_eq!(c.candidate_guards(&q), vec![0]);
        let c2 = DegreeConstraint::new(vec![1], vec![1, 2], 5); // {B,C}: only atom S
        assert_eq!(c2.candidate_guards(&q), vec![1]);
        let c3 = DegreeConstraint::cardinality(vec![0], 10); // {A}: atoms R and T
        assert_eq!(c3.candidate_guards(&q), vec![0, 2]);
    }

    #[test]
    fn all_cardinalities_builder() {
        let q = examples::triangle();
        let dc = ConstraintSet::all_cardinalities(&q, &[("R", 10), ("S", 20), ("T", 30)]).unwrap();
        assert_eq!(dc.len(), 3);
        assert!(dc.cardinalities_only());
        assert!(dc.cardinalities_and_simple_fds_only());
        assert!(dc.is_acyclic(3));
        assert_eq!(dc.constraints()[0].guard, Some(0));
        assert!(ConstraintSet::all_cardinalities(&q, &[("Z", 1)]).is_err());
    }

    #[test]
    fn constraint_graph_and_acyclicity() {
        let q = examples::chain_with_guard(); // A, B, C, D
                                              // constraints from the paper's example (63): N_A, N_{B|A}, N_{C|B}, N_{AD|C}
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &[], &["A"], 10).unwrap();
        dc.push_named(&q, &["A"], &["B"], 5).unwrap();
        dc.push_named(&q, &["B"], &["C"], 5).unwrap();
        dc.push_named(&q, &["C"], &["A", "D"], 5).unwrap();
        let g = dc.constraint_graph(4);
        let a = q.var_id("A").unwrap();
        let b = q.var_id("B").unwrap();
        let c = q.var_id("C").unwrap();
        let d = q.var_id("D").unwrap();
        assert_eq!(g[a], vec![b]);
        assert_eq!(g[b], vec![c]);
        assert!(g[c].contains(&a) && g[c].contains(&d));
        // C -> A and A -> B -> C: cyclic
        assert!(!dc.is_acyclic(4));
        assert!(dc.compatible_order(4).is_none());

        // Drop the cyclic edge by replacing (C, {A,D}) with (C, {D}): acyclic again.
        let mut dc2 = ConstraintSet::new();
        dc2.push_named(&q, &[], &["A"], 10).unwrap();
        dc2.push_named(&q, &["A"], &["B"], 5).unwrap();
        dc2.push_named(&q, &["B"], &["C"], 5).unwrap();
        dc2.push_named(&q, &["C"], &["D"], 5).unwrap();
        assert!(dc2.is_acyclic(4));
        let order = dc2.compatible_order(4).unwrap();
        assert!(dc2.order_is_compatible(&order));
        assert_eq!(order, vec![a, b, c, d]);
        // an incompatible order is rejected
        assert!(!dc2.order_is_compatible(&[d, c, b, a]));
        // malformed orders are rejected rather than panicking
        assert!(!dc2.order_is_compatible(&[0, 0, 1, 2]));
    }

    #[test]
    fn cardinality_only_sets_are_trivially_acyclic() {
        let q = examples::clique(4);
        let dc = ConstraintSet::all_cardinalities(&q, &[("E", 100)]).unwrap();
        assert!(dc.is_acyclic(q.num_vars()));
        let order = dc.compatible_order(q.num_vars()).unwrap();
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn push_named_unknown_variable_errors() {
        let q = examples::triangle();
        let mut dc = ConstraintSet::new();
        assert!(dc.push_named(&q, &["A"], &["Z"], 5).is_err());
        assert!(dc.push_named(&q, &["Z"], &["A"], 5).is_err());
        assert!(dc.is_empty());
    }
}
