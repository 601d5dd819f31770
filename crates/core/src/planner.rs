//! The prefix-bound variable-order planner — where the bounds layer steers the
//! execution layer.
//!
//! Algorithm 2's guarantee holds for any variable order, but its constants do
//! not. The paper's analysis (Section 4.2) says what an order costs: the bindings
//! Generic Join visits at level `i` are tuples of the join of every atom's
//! projection onto the first `i` variables, so there are at most as many as the
//! AGM bound of the query **restricted to that prefix**
//! ([`wcoj_bounds::agm::prefix_log2_bound`]). The cost of an order is the sum of
//! its prefix bounds, and [`plan`] returns the order of least cost:
//!
//! * up to [`EXHAUSTIVE_VARS`] variables by a dynamic program over variable sets
//!   (`togo[S] = min_{v ∉ S} bound(S ∪ v) + togo[S ∪ v]`, the cheapest way to
//!   finish from prefix set `S`), above that greedily by the next prefix's bound;
//! * ties — relative `1e-9` — go to the lexicographically least order, so inputs
//!   of equal size keep the identity order, whose result needs no re-sort;
//! * one- and two-variable sets are closed forms and the full set is the whole
//!   query's AGM bound, solved once and kept as [`Plan::agm`]: a three-variable
//!   query plans with that one LP;
//! * an order the caller gives is costed by the same prefix bounds, not
//!   searched — the one place an order's bounds are solved.
//!
//! The plan is a pure function of the query's shape and its atoms' sizes — never
//! of cache state, options or the host.

use crate::error::ExecError;
use crate::exec::{Engine, ExecOptions};
use wcoj_bounds::agm::{agm_bound, prefix_log2_bound, AgmBound};
use wcoj_query::plan::{default_order, is_valid_order};
use wcoj_query::{ConjunctiveQuery, Database, VarId};

/// The most variables the planner orders exhaustively (`2^n` variable sets).
pub const EXHAUSTIVE_VARS: usize = 6;

/// Costs within this relative distance are a tie.
const TIE: f64 = 1e-9;

/// A variable order with the bounds that chose it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The global variable order.
    pub order: Vec<VarId>,
    /// `log2` of the bound on the bindings visited at each level: the AGM bound
    /// of the query restricted to `order[..=i]`; their sum, in tuples, is the
    /// order's cost. The last entry is `agm.log2_bound`.
    pub prefix_log2: Vec<f64>,
    /// The whole query's AGM bound.
    pub agm: AgmBound,
}

/// Choose the global variable order for an execution configured by `opts`: the
/// identity order for the (order-insensitive) binary baseline, [`plan`]'s for the
/// WCOJ engines.
pub fn plan_order(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
) -> Result<Vec<VarId>, ExecError> {
    Ok(plan(query, db, baseline_order(query, opts).as_deref())?.order)
}

/// The order an execution configured by `opts` runs under when its caller gave
/// none and the planner is not asked: the binary baseline ignores the order, so
/// it keeps the identity.
pub(crate) fn baseline_order(query: &ConjunctiveQuery, opts: &ExecOptions) -> Option<Vec<VarId>> {
    (opts.engine == Engine::BinaryHash).then(|| default_order(query))
}

/// The plan of `query` over `db`: the given `order` costed, or with `None` the
/// variable order of least prefix-bound cost, ties to the lexicographically
/// least.
pub fn plan(
    query: &ConjunctiveQuery,
    db: &Database,
    order: Option<&[VarId]>,
) -> Result<Plan, ExecError> {
    plan_from_bound(query, agm_bound(query, db)?, order)
}

/// [`plan`], given the whole query's solved bound — whose `log_sizes` are all the
/// planner reads of the data. A given `order` must be a permutation of the
/// query's variables ([`ExecError::InvalidOrder`]) and is costed, not searched.
/// An empty relation empties the output under every order, so the search keeps
/// the identity order (and the orders its neighbours' access structures are
/// cached under).
pub fn plan_from_bound(
    query: &ConjunctiveQuery,
    agm: AgmBound,
    order: Option<&[VarId]>,
) -> Result<Plan, ExecError> {
    let order = match order {
        Some(order) if is_valid_order(query, order) => order.to_vec(),
        Some(order) => return Err(ExecError::InvalidOrder(order.to_vec())),
        None if agm.log2_bound == f64::NEG_INFINITY => default_order(query),
        None if query.num_vars() <= EXHAUSTIVE_VARS => exhaustive_order(query, &agm)?,
        None => greedy_order(query, &agm)?,
    };
    let mut prefix_log2 = Vec::with_capacity(order.len());
    for i in 1..order.len() {
        prefix_log2.push(prefix_log2_bound(query, &agm.log_sizes, &order[..i])?);
    }
    prefix_log2.extend(order.last().map(|_| agm.log2_bound));
    Ok(Plan {
        order,
        prefix_log2,
        agm,
    })
}

/// The dynamic program over the `2^n` variable sets, `n ≤` [`EXHAUSTIVE_VARS`].
fn exhaustive_order(query: &ConjunctiveQuery, agm: &AgmBound) -> Result<Vec<VarId>, ExecError> {
    const SETS: usize = 1 << EXHAUSTIVE_VARS;
    let n = query.num_vars();
    let full = (1usize << n) - 1;
    // the variables of `0..n` whose membership in `set` is `inside`
    let vars_of = |set: usize, inside: bool| (0..n).filter(move |v| (set >> v & 1 == 1) == inside);
    // bound[S], in tuples, of every non-empty variable set
    let mut bound = [0.0f64; SETS];
    bound[full] = agm.log2_bound.exp2();
    for (set, bound) in bound.iter_mut().enumerate().take(full).skip(1) {
        let (mut vars, mut len) = ([0; EXHAUSTIVE_VARS], 0);
        for v in vars_of(set, true) {
            vars[len] = v;
            len += 1;
        }
        *bound = prefix_log2_bound(query, &agm.log_sizes, &vars[..len])?.exp2();
    }
    // togo[S]: the least cost of binding the variables outside S, given S is
    // bound. A superset is numerically larger, so descending order has it ready.
    let mut togo = [0.0f64; SETS];
    let step = |togo: &[f64; SETS], set: usize, v: VarId| bound[set | 1 << v] + togo[set | 1 << v];
    for set in (0..full).rev() {
        togo[set] = vars_of(set, false)
            .map(|v| step(&togo, set, v))
            .fold(f64::INFINITY, f64::min);
    }
    // walk forward, taking at each level the least variable on a cheapest path
    // (`total_cmp` never panics; if NaN bounds leave no such path, the least
    // unbound variable)
    let mut order = Vec::with_capacity(n);
    let mut set = 0;
    while set != full {
        let within = togo[set] * (1.0 + TIE);
        let v = vars_of(set, false)
            .find(|&v| step(&togo, set, v).total_cmp(&within).is_le())
            .unwrap_or(set.trailing_ones() as VarId);
        order.push(v);
        set |= 1 << v;
    }
    Ok(order)
}

/// Above [`EXHAUSTIVE_VARS`] variables: bind next the variable whose prefix has
/// the least bound, the least such variable on ties.
fn greedy_order(query: &ConjunctiveQuery, agm: &AgmBound) -> Result<Vec<VarId>, ExecError> {
    let mut unbound = default_order(query);
    let mut order = Vec::with_capacity(unbound.len());
    // the last variable has no rival, and its prefix is the whole query
    while unbound.len() > 1 {
        let mut best = (f64::INFINITY, 0);
        for (at, &v) in unbound.iter().enumerate() {
            order.push(v);
            let bound = prefix_log2_bound(query, &agm.log_sizes, &order)?.exp2();
            order.pop();
            if at == 0 || bound.total_cmp(&(best.0 * (1.0 - TIE))).is_lt() {
                best = (bound, at);
            }
        }
        order.push(unbound.remove(best.1));
    }
    order.append(&mut unbound);
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;
    use wcoj_storage::{Relation, Schema};

    fn cost(plan: &Plan) -> f64 {
        plan.prefix_log2.iter().map(|l| l.exp2()).sum()
    }

    /// `query` over relations of the given sizes (distinct rows `(i, i, …)`).
    fn db_of(query: &ConjunctiveQuery, sizes: &[u64]) -> Database {
        let mut db = Database::new();
        for (atom, &n) in query.atoms().iter().zip(sizes) {
            let attrs: Vec<String> = (0..atom.vars.len()).map(|c| format!("c{c}")).collect();
            let rows = (0..n).map(|i| vec![i; atom.vars.len()]).collect();
            let schema = Schema::try_new(attrs).unwrap();
            db.insert(atom.name.clone(), Relation::from_rows(schema, rows));
        }
        db
    }

    /// … and so do the other symmetric shapes.
    #[test]
    fn triangle_equal_sizes_gives_appearance_order() {
        let queries = [
            examples::triangle(),
            examples::clique(3),
            examples::clique(4),
            examples::four_cycle(),
            examples::loomis_whitney(4),
            examples::star(3),
        ];
        for q in queries {
            let db = db_of(&q, &vec![81; q.atoms().len()]);
            let plan = plan(&q, &db, None).unwrap();
            assert_eq!(plan.order, default_order(&q), "{q}");
            assert_eq!(plan.prefix_log2.len(), q.num_vars());
            assert_eq!(plan.prefix_log2.last(), Some(&plan.agm.log2_bound));
        }
    }

    #[test]
    fn skewed_sizes_start_from_the_heavy_atoms() {
        // |T| huge: the cover charges R and S, and their variables A, B come
        // first — as they do in B, C, A, the old heuristic's pick, which also
        // costs 4 + 4 + 16; the tie goes to the identity order
        let q = examples::triangle();
        let plan = plan(&q, &db_of(&q, &[4, 4, 1024]), None).unwrap();
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.prefix_log2, vec![2.0, 2.0, 4.0]);
        assert_eq!(cost(&plan), 24.0);
    }

    #[test]
    fn a_needle_is_bound_first() {
        // R tiny: the whole-query cover puts no weight on R (sqrt(4·64·64) = 128
        // < 4·64), yet R bounds the first two prefixes — 4 + 4 + 128 against
        // 64 + 64 + 128 for the C-first order the cover weights used to pick
        let q = examples::triangle();
        let db = db_of(&q, &[4, 64, 64]);
        let plan = plan(&q, &db, None).unwrap();
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(cost(&plan), 136.0);
        assert_eq!(
            cost(&super::plan(&q, &db, Some(&[2, 0, 1])).unwrap()),
            256.0
        );
        // the needle moved to S(B, C): bind B, C first
        let plan = super::plan(&q, &db_of(&q, &[64, 4, 64]), None).unwrap();
        assert_eq!(plan.order, vec![1, 2, 0]);
    }

    #[test]
    fn empty_relation_still_plans() {
        let q = examples::triangle();
        let plan = plan(&q, &db_of(&q, &[4, 0, 4]), None).unwrap();
        assert_eq!(
            plan.order,
            vec![0, 1, 2],
            "an empty atom keeps the identity"
        );
        assert_eq!(plan.agm.log2_bound, f64::NEG_INFINITY);
        assert_eq!(cost(&plan), 4.0, "A is bound from R and T, B meets empty S");
    }

    #[test]
    fn missing_relation_is_an_error() {
        let q = examples::triangle();
        let db = Database::new();
        assert!(matches!(
            plan(&q, &db, None).unwrap_err(),
            ExecError::Bound(_)
        ));
        assert!(matches!(
            plan(&q, &db_of(&q, &[1, 1, 1]), Some(&[0, 1, 1])).unwrap_err(),
            ExecError::InvalidOrder(_)
        ));
    }

    #[test]
    fn a_single_atom_and_a_cross_product_plan() {
        let one = ConjunctiveQuery::builder()
            .atom("R", &["A", "B", "C"])
            .build()
            .unwrap();
        let plan = plan(&one, &db_of(&one, &[32]), None).unwrap();
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.prefix_log2, vec![5.0, 5.0, 5.0]);
        // disconnected: R(A, B) × S(C, D) with S the smaller — its variables go
        // first (8 + 8 + 8·32 + 8·32 against 32 + 32 + 32·8 + 32·8)
        let cross = ConjunctiveQuery::builder()
            .atom("R", &["A", "B"])
            .atom("S", &["C", "D"])
            .build()
            .unwrap();
        let plan = super::plan(&cross, &db_of(&cross, &[32, 8]), None).unwrap();
        assert_eq!(plan.order, vec![2, 3, 0, 1]);
        assert_eq!(plan.prefix_log2, vec![3.0, 3.0, 8.0, 8.0]);
    }

    #[test]
    fn seven_variables_take_the_greedy_branch() {
        // the path X0 - X1 - … - X7 (8 variables) with one small edge in the middle
        let names: Vec<String> = (0..8).map(|i| format!("X{i}")).collect();
        let mut builder = ConjunctiveQuery::builder();
        for i in 0..7 {
            builder = builder.atom(&format!("E{i}"), &[&names[i], &names[i + 1]]);
        }
        let path = builder.build().unwrap();
        assert!(path.num_vars() > EXHAUSTIVE_VARS);
        let equal = plan(&path, &db_of(&path, &[16; 7]), None).unwrap();
        assert_eq!(equal.order, default_order(&path), "ties keep the identity");
        let plan = plan(&path, &db_of(&path, &[16, 16, 16, 2, 16, 16, 16]), None).unwrap();
        assert!(is_valid_order(&path, &plan.order));
        assert_eq!(&plan.order[..2], &[3, 4], "the small edge E3(X3, X4) first");
        assert_eq!(plan.prefix_log2.last(), Some(&plan.agm.log2_bound));
        // every prefix bound is what costing the chosen order reports
        let db = db_of(&path, &[16, 16, 16, 2, 16, 16, 16]);
        let costed = super::plan(&path, &db, Some(&plan.order)).unwrap();
        assert_eq!(costed.prefix_log2, plan.prefix_log2);
    }

    #[test]
    fn non_finite_bounds_do_not_panic() {
        // no ordering of NaN or infinite costs may panic the table walk
        let q = examples::clique(4);
        let db = db_of(&q, &[3; 6]);
        let mut agm = agm_bound(&q, &db).unwrap();
        for weird in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            agm.log2_bound = weird;
            agm.log_sizes[0] = weird;
            if let Ok(order) = exhaustive_order(&q, &agm) {
                assert!(is_valid_order(&q, &order));
            }
            if let Ok(order) = greedy_order(&q, &agm) {
                assert!(is_valid_order(&q, &order));
            }
        }
    }
}
