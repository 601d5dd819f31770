//! The prefix-bound planner, checked against brute force and against the paper.
//!
//! * the dynamic program's cost is the minimum over all `n!` orders, each costed
//!   by solving the plain cover LP of every prefix's restricted query, and the
//!   one- and two-variable closed forms equal that LP;
//! * the plan does not depend on cache state;
//! * **the certificate**: at every level of every traced run, the engines'
//!   `candidates` and `emitted` are at most `C ·` the prefix bound the planner reported — the
//!   paper's per-level claim for Generic Join (Section 4.2), with [`C`]` = 1`;
//! * on the needle shapes (a few probe rows against two larger relations) the
//!   planned order binds the probe first and does close to the best order's work;
//! * every plan of the differential suites and the paper's named shapes has the
//!   order and prefix bounds of a brute-force (or greedy) search over prefix
//!   bounds that are each certified by duality, independently of the solver's
//!   pivots.

use std::collections::HashMap;
use std::sync::Arc;
use wcoj_bounds::agm::{agm_bound_from_sizes, prefix_log2_bound};
use wcoj_bounds::lp::solve_packing_lp;
use wcoj_core::exec::{
    execute_cancellable, execute_opts, run, CacheMode, CancelToken, Engine, ExecOptions,
};
use wcoj_core::planner::{plan, plan_from_bound, EXHAUSTIVE_VARS};
use wcoj_core::{ExecError, QueryTrace, TraceSink};
use wcoj_query::{ConjunctiveQuery, Database, VarId};
use wcoj_storage::Relation;
use wcoj_workloads::{
    differential_suite, four_cycle, k_path, kclique, lw4, needle, random_pairs, star,
    triangle_adversarial, SplitMix64, Workload,
};

const WCOJ: [Engine; 2] = [Engine::GenericJoin, Engine::Leapfrog];

/// The certificate's constant: a level's `candidates` (extension-set values) and
/// `emitted` (values bound) each count distinct tuples of the join of the atoms'
/// projections onto the bound prefix, which the prefix's AGM bound bounds
/// outright.
const C: f64 = 1.0;

/// A random query of `2..=5` variables and `1..=6` atoms of arity `1..=3` (every
/// variable covered), with a size in `1..=2^20` per atom.
fn random_query(seed: u64) -> (ConjunctiveQuery, Vec<u64>) {
    let mut rng = SplitMix64::new(seed);
    let num_vars = 2 + rng.below(4) as usize;
    let num_atoms = 1 + rng.below(6) as usize;
    let mut atom_vars: Vec<Vec<usize>> = vec![Vec::new(); num_atoms];
    for v in 0..num_vars {
        atom_vars[v % num_atoms].push(v);
    }
    for vars in atom_vars.iter_mut() {
        let arity = vars.len().max(1 + rng.below(3) as usize).min(num_vars);
        while vars.len() < arity {
            let v = rng.below(num_vars as u64) as usize;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let names: Vec<String> = (0..num_vars).map(|v| format!("X{v}")).collect();
    let mut builder = ConjunctiveQuery::builder();
    for (a, vars) in atom_vars.iter().enumerate() {
        let refs: Vec<&str> = vars.iter().map(|&v| names[v].as_str()).collect();
        builder = builder.atom(&format!("H{a}"), &refs);
    }
    let sizes = (0..num_atoms)
        .map(|_| {
            let bits = rng.below(21);
            1 + rng.below(1 << bits)
        })
        .collect();
    (builder.build().expect("valid query"), sizes)
}

/// The plain LP: the AGM bound (`log2`) of the query whose atoms are `query`'s
/// projected onto `vars` (atoms that miss `vars` dropped), sizes kept.
fn restricted_lp(query: &ConjunctiveQuery, sizes: &[u64], vars: &[VarId]) -> f64 {
    let mut builder = ConjunctiveQuery::builder();
    let mut kept = Vec::new();
    for (atom, &size) in query.atoms().iter().zip(sizes) {
        let names: Vec<&str> = atom
            .vars
            .iter()
            .filter(|v| vars.contains(v))
            .map(|&v| query.var_name(v))
            .collect();
        if !names.is_empty() {
            builder = builder.atom(&atom.name, &names);
            kept.push(size);
        }
    }
    let restricted = builder.build().expect("restricted query");
    assert_eq!(restricted.num_vars(), vars.len());
    agm_bound_from_sizes(&restricted, &kept)
        .expect("cover LP")
        .log2_bound
}

fn permutations(n: usize) -> Vec<Vec<VarId>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut order = shorter.clone();
            order.insert(at, n - 1);
            all.push(order);
        }
    }
    all.sort();
    all
}

#[test]
fn the_dp_finds_the_brute_force_minimum_and_the_closed_forms_equal_the_lp() {
    for seed in 0..400u64 {
        let (query, sizes) = random_query(0x9A77 ^ seed.wrapping_mul(0x9E37_79B9));
        let agm = agm_bound_from_sizes(&query, &sizes).expect("agm");
        let n = query.num_vars();
        // the oracle, once per variable set
        let mut lp: HashMap<Vec<VarId>, f64> = HashMap::new();
        let mut oracle = |vars: &[VarId]| {
            let mut key = vars.to_vec();
            key.sort_unstable();
            *lp.entry(key)
                .or_insert_with_key(|key| restricted_lp(&query, &sizes, key))
        };
        for u in 0..n {
            let one = prefix_log2_bound(&query, &agm.log_sizes, &[u]).unwrap();
            assert!((one - oracle(&[u])).abs() < 1e-9, "{query}: {{{u}}}");
            for v in (0..n).filter(|&v| v != u) {
                let two = prefix_log2_bound(&query, &agm.log_sizes, &[u, v]).unwrap();
                assert!((two - oracle(&[u, v])).abs() < 1e-9, "{query}: {{{u},{v}}}");
            }
        }
        let cost = |order: &[VarId], oracle: &mut dyn FnMut(&[VarId]) -> f64| -> f64 {
            (1..=order.len()).map(|i| oracle(&order[..i]).exp2()).sum()
        };
        let orders = permutations(n);
        let costs: Vec<f64> = orders.iter().map(|o| cost(o, &mut oracle)).collect();
        let least = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let plan = plan_from_bound(&query, agm, None).expect("plan");
        let label = format!("{query} sizes {sizes:?}: planned {:?}", plan.order);
        let planned: f64 = plan.prefix_log2.iter().map(|l| l.exp2()).sum();
        assert!((planned - least).abs() <= 1e-9 * least, "{label}");
        // ... attained by the order it returns, the least such order
        let first = orders
            .iter()
            .zip(&costs)
            .find(|(_, &c)| c <= least * (1.0 + 1e-9))
            .map(|(o, _)| o);
        assert_eq!(Some(&plan.order), first, "{label}");
        for (i, &l) in plan.prefix_log2.iter().enumerate() {
            assert!((l - oracle(&plan.order[..=i])).abs() < 1e-9, "{label}");
        }
    }
}

fn traced(w: &Workload, opts: &ExecOptions, order: Option<&[VarId]>) -> QueryTrace {
    let sink = Arc::new(TraceSink::new());
    let opts = opts.with_trace(Arc::clone(&sink));
    match order {
        Some(order) => plan(&w.query, &w.db, Some(order))
            .and_then(|plan| run(&w.query, &w.db, &plan, &opts, None)),
        None => execute_opts(&w.query, &w.db, &opts),
    }
    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    sink.take().expect("trace deposited")
}

#[test]
fn candidates_stay_under_the_prefix_bound_at_every_level() {
    for w in differential_suite(0xCE27) {
        let planned = plan(&w.query, &w.db, None).expect("plan");
        let reversed: Vec<VarId> = (0..w.query.num_vars()).rev().collect();
        let (mut worst, mut loosest) = (0.0f64, 1.0f64);
        for engine in WCOJ {
            let opts = ExecOptions::new(engine);
            for order in [None, Some(reversed.as_slice())] {
                let trace = traced(&w, &opts, order);
                if order.is_none() {
                    // the planner ran: the trace reports its bounds, not a re-solve
                    assert_eq!(trace.prefix_log2, planned.prefix_log2, "{}", w.name);
                    assert_eq!(trace.agm_log2, planned.agm.log2_bound, "{}", w.name);
                }
                assert_eq!(trace.levels.len(), w.query.num_vars());
                for (i, level) in trace.levels.iter().enumerate() {
                    // Leapfrog's ring materializes no extension set at an
                    // interior level (`candidates` stays 0 there); the values it
                    // binds are that level's `emitted`, the same prefix tuples
                    let visited = level.candidates.max(level.emitted);
                    let bound = trace.level_bound(i).exp2();
                    let ratio = visited as f64 / bound;
                    worst = worst.max(ratio);
                    loosest = loosest.min(ratio);
                    assert!(
                        ratio <= C * (1.0 + 1e-9),
                        "{} {engine:?} {:?} level {i}: {visited} bindings over a bound of {bound}",
                        w.name,
                        trace.order,
                    );
                }
            }
        }
        println!(
            "{:<28} bindings/bound over all levels: {loosest:.4} to {worst:.4}",
            w.name
        );
    }
}

#[test]
fn a_caller_supplied_order_is_traced_with_its_own_bounds() {
    let w = needle(256, 3);
    let order = [2, 0, 1];
    let trace = traced(&w, &ExecOptions::new(Engine::GenericJoin), Some(&order));
    let costed = plan(&w.query, &w.db, Some(&order)).expect("cost");
    assert_eq!(trace.order, ["C", "A", "B"]);
    assert_eq!(trace.prefix_log2, costed.prefix_log2);
    assert_eq!(trace.agm_log2, costed.agm.log2_bound);
    // the binary baseline has no levels, yet reports the identity order's bounds
    let trace = traced(&w, &ExecOptions::new(Engine::BinaryHash), None);
    assert_eq!(trace.prefix_log2.len(), 3);
    assert!(trace.levels.is_empty());
}

#[test]
fn the_plan_does_not_depend_on_cache_state() {
    for w in differential_suite(0x0C4E) {
        let planned = plan(&w.query, &w.db, None).expect("plan").order;
        for engine in WCOJ {
            // cold, warm, warm again, bypassed: one order throughout
            for cache in [CacheMode::On, CacheMode::On, CacheMode::Off, CacheMode::On] {
                let opts = ExecOptions::new(engine).with_cache(cache);
                let out = execute_opts(&w.query, &w.db, &opts).expect("execute");
                assert_eq!(out.order, planned, "{} {engine:?} {cache:?}", w.name);
            }
        }
        assert_eq!(plan(&w.query, &w.db, None).expect("plan").order, planned);
    }
}

#[test]
fn a_given_planner_order_is_costed_as_the_planner_costed_it() {
    for w in differential_suite(0x0C57) {
        let planned = plan(&w.query, &w.db, None).expect("plan");
        let given = plan(&w.query, &w.db, Some(&planned.order)).expect("cost");
        assert_eq!(given.order, planned.order, "{}", w.name);
        assert_eq!(given.prefix_log2, planned.prefix_log2, "{}", w.name);
        assert_eq!(given.agm.log2_bound, planned.agm.log2_bound, "{}", w.name);
        assert_eq!(given.agm.exponents, planned.agm.exponents, "{}", w.name);
    }
}

#[test]
fn a_given_order_fails_where_the_search_fails_and_before_any_build() {
    let opts = ExecOptions::new(Engine::GenericJoin);
    let token = CancelToken::new();
    // a missing relation is one error whether or not the order was given
    let q = wcoj_query::query::examples::triangle();
    let empty = Database::new();
    for err in [
        execute_opts(&q, &empty, &opts).unwrap_err(),
        execute_cancellable(&q, &empty, &opts, Some(&[0, 1, 2]), &token).unwrap_err(),
        plan(&q, &empty, Some(&[2, 1, 0])).unwrap_err(),
    ] {
        assert!(matches!(err, ExecError::Bound(_)), "{err:?}");
    }
    // an order that is no permutation fails in the planner: nothing is built
    let w = needle(64, 5);
    let registry = wcoj_obs::Registry::new();
    w.db.cache_counters().register_metrics(&registry);
    for order in [&[0, 1][..], &[0, 1, 1], &[0, 1, 3]] {
        let err = execute_cancellable(&w.query, &w.db, &opts, Some(order), &token).unwrap_err();
        assert_eq!(err, ExecError::InvalidOrder(order.to_vec()));
    }
    assert_eq!(registry.snapshot().counter_value("cache.misses"), Some(0));
    assert_eq!(w.db.trie_bytes(), 0, "nothing is memoized");
}

/// The `needle_cached` instance of the request benchmark: 4 probe rows against
/// two relations of 64 distinct rows over 16 values, the seed permuting labels.
fn request_needle(seed: u64) -> Workload {
    fn distinct_pairs(count: usize, domain: u64, seed: u64) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(count);
        for round in 0u64.. {
            let salt = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for pair in random_pairs(count, domain, seed ^ salt) {
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                    if pairs.len() == count {
                        return pairs;
                    }
                }
            }
        }
        unreachable!()
    }
    let mut labels: Vec<u64> = (0..16).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let pairs = |rows, salt: u64| {
        distinct_pairs(rows, 16, 0xD1D1 ^ salt)
            .into_iter()
            .map(|(a, b)| (labels[a as usize], labels[b as usize]))
            .collect::<Vec<_>>()
    };
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("A", "B", pairs(4, 0)));
    db.insert("S", Relation::from_pairs("B", "C", pairs(64, 1)));
    db.insert("T", Relation::from_pairs("A", "C", pairs(64, 2)));
    Workload {
        name: format!("request_needle_s{seed}"),
        query: wcoj_query::query::examples::triangle(),
        db,
    }
}

#[test]
fn a_needle_is_probed_from_its_small_side() {
    let mut instances: Vec<Workload> = [1, 5, 7].map(request_needle).into();
    instances.push(needle(16_384, 0xD1D1));
    for w in instances {
        let planned = plan(&w.query, &w.db, None).expect("plan").order;
        assert!(planned[0] < 2, "{}: {planned:?} binds C first", w.name);
        for engine in WCOJ {
            let opts = ExecOptions::new(engine);
            let work = |order: &[VarId]| {
                let plan = plan(&w.query, &w.db, Some(order)).expect("plan");
                let out = run(&w.query, &w.db, &plan, &opts, None).expect("run");
                out.work.total_work()
            };
            let best = permutations(3).iter().map(|o| work(o)).min().unwrap();
            let (ours, old) = (work(&planned), work(&[2, 0, 1]));
            println!(
                "{} {engine:?}: planned {ours} best {best} old {old}",
                w.name
            );
            assert!(2 * ours <= 3 * best, "{}: {ours} > 1.5 x {best}", w.name);
            assert!(10 * ours <= 6 * old, "{}: {ours} > 0.6 x {old}", w.name);
        }
    }
}

/// `log2` of the cover LP (5) of `query` restricted to `vars`, over the atoms
/// that touch `vars` (an empty touching atom empties the prefix), solved as its
/// dual packing LP and checked by its certificate: the packing `v` is primal
/// feasible, the cover `δ` dual feasible, and `Σ b_i δ_i = Σ v_j`.
fn certified_prefix(query: &ConjunctiveQuery, log_sizes: &[f64], vars: &[VarId]) -> f64 {
    let touching: Vec<(f64, Vec<usize>)> = (query.atoms().iter().zip(log_sizes))
        .map(|(atom, &l)| {
            let edge = (0..vars.len()).filter(|&i| atom.vars.contains(&vars[i]));
            (l, edge.collect::<Vec<_>>())
        })
        .filter(|(_, edge)| !edge.is_empty())
        .collect();
    if touching.iter().any(|&(l, _)| l == f64::NEG_INFINITY) {
        return f64::NEG_INFINITY;
    }
    let rows = touching.iter().map(|(l, edge)| (*l, edge.iter().copied()));
    let p = solve_packing_lp(vars.len(), rows).expect("every variable is in an atom");
    let tol = 1e-9 * p.objective.abs().max(1.0);
    assert!(p.primal.iter().chain(&p.dual).all(|&x| x >= -1e-9), "{p:?}");
    for (l, edge) in &touching {
        let load: f64 = edge.iter().map(|&i| p.primal[i]).sum();
        assert!(load <= l + 1e-9 * l.max(1.0), "{vars:?}: {load} > {l}");
    }
    for i in 0..vars.len() {
        let cover: f64 = (touching.iter().zip(&p.dual))
            .filter(|((_, edge), _)| edge.contains(&i))
            .map(|(_, d)| d)
            .sum();
        assert!(
            cover >= 1.0 - 1e-9,
            "{vars:?}: variable {i} covered {cover}"
        );
    }
    let priced: f64 = touching.iter().zip(&p.dual).map(|((l, _), d)| l * d).sum();
    let packed: f64 = p.primal.iter().sum();
    assert!((priced - p.objective).abs() <= tol && (packed - p.objective).abs() <= tol);
    p.objective
}

/// The order the planner should pick, with its prefix bounds, every bound
/// solved by [`certified_prefix`]: up to
/// [`EXHAUSTIVE_VARS`] variables the least order of least cost (the dynamic
/// program's answer, `the_dp_finds_the_brute_force_minimum…` above), above that
/// the greedy walk; an empty relation keeps the identity.
fn certified_plan(query: &ConjunctiveQuery, db: &Database) -> (Vec<VarId>, Vec<f64>) {
    let log_sizes: Vec<f64> = (0..query.atoms().len())
        .map(|i| (db.atom_size(query, i).expect("bound atom") as f64).log2())
        .collect();
    let mut solved: HashMap<Vec<VarId>, f64> = HashMap::new();
    let mut bound = |prefix: &[VarId]| {
        let mut set = prefix.to_vec();
        set.sort_unstable();
        *solved
            .entry(set)
            .or_insert_with_key(|set| certified_prefix(query, &log_sizes, set))
    };
    let n = query.num_vars();
    let order = if log_sizes.contains(&f64::NEG_INFINITY) {
        (0..n).collect()
    } else if n <= EXHAUSTIVE_VARS {
        let orders = permutations(n);
        let costs: Vec<f64> = (orders.iter())
            .map(|o| (1..=n).map(|i| bound(&o[..i]).exp2()).sum())
            .collect();
        let least = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let at = costs.iter().position(|&c| c <= least * (1.0 + 1e-9));
        orders[at.expect("a least order")].clone()
    } else {
        let (mut order, mut unbound): (Vec<VarId>, Vec<VarId>) = (Vec::new(), (0..n).collect());
        while unbound.len() > 1 {
            let mut best = (f64::INFINITY, 0);
            for (at, &v) in unbound.iter().enumerate() {
                order.push(v);
                let b = bound(&order).exp2();
                order.pop();
                if at == 0 || b < best.0 * (1.0 - 1e-9) {
                    best = (b, at);
                }
            }
            order.push(unbound.remove(best.1));
        }
        order.append(&mut unbound);
        order
    };
    let prefix_log2 = (1..=n).map(|i| bound(&order[..i])).collect();
    (order, prefix_log2)
}

#[test]
fn plans_are_the_certified_plans() {
    let mut workloads: Vec<Workload> = [1, 2, 3].into_iter().flat_map(differential_suite).collect();
    workloads.extend([
        four_cycle(64, 4),
        lw4(64, 5),
        kclique(4, 48, 6),
        kclique(5, 32, 7),
        k_path(5, 96, 8),
        k_path(7, 64, 9),
        star(4, 96, 10),
        triangle_adversarial(48),
    ]);
    for w in workloads {
        let planned = plan(&w.query, &w.db, None).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (order, prefix_log2) = certified_plan(&w.query, &w.db);
        assert_eq!(planned.order, order, "{}", w.name);
        for (i, (&ours, &theirs)) in planned.prefix_log2.iter().zip(&prefix_log2).enumerate() {
            assert!(
                (ours - theirs).abs() <= 1e-9,
                "{} level {i}: {ours} vs {theirs}",
                w.name
            );
        }
    }
}
