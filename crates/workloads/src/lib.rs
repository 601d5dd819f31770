//! `wcoj-workloads` — deterministic query/data generators for tests, experiments,
//! and benchmarks.
//!
//! Every generator returns a [`Workload`]: a [`ConjunctiveQuery`] paired with a
//! [`Database`] binding its atoms. Data generation is seeded (a SplitMix64 PRNG, no
//! external dependencies), so every test and benchmark run sees identical inputs.
//!
//! Two data regimes matter for the paper's story:
//!
//! * **uniform** random edges — the regime where binary plans are fine and the AGM
//!   bound is slack;
//! * **Zipf-skewed** edges ([`zipf_pairs`]) — heavy-hitter joins where
//!   one-pair-at-a-time plans blow up on intermediate results while the WCOJ engines
//!   stay within `O(N^{ρ*})` (Section 1.1's motivating example is exactly such a
//!   skew).
//!
//! # Example
//!
//! ```
//! let w = wcoj_workloads::triangle(256, 42);
//! assert_eq!(w.query.num_vars(), 3);
//! assert_eq!(w.db.num_relations(), 3);
//! assert!(w.db.delta("R").unwrap().len() <= 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wcoj_query::query::examples;
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::{AttrType, Relation, Schema, TypedValue, Value};

/// A named query plus a database binding every atom — one unit of experimental work.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier used in test/benchmark output (e.g. `triangle_n256`).
    pub name: String,
    /// The query.
    pub query: ConjunctiveQuery,
    /// The database its atoms are bound to.
    pub db: Database,
}

/// SplitMix64 — a tiny, high-quality, dependency-free PRNG (Steele et al. 2014).
/// Deterministic per seed; used for all data generation in the workspace.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // rejection-free: multiply-shift (Lemire); bias is negligible for our bounds
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A float uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` uniform random pairs over `[0, domain)²` (duplicates collapse when the
/// relation is built, so the result may hold fewer than `n` tuples).
pub fn random_pairs(n: usize, domain: u64, seed: u64) -> Vec<(Value, Value)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.below(domain), rng.below(domain)))
        .collect()
}

/// `n` uniform random `arity`-tuples over `[0, domain)^arity` (duplicates collapse
/// when the relation is built).
pub fn random_tuples(n: usize, arity: usize, domain: u64, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.below(domain)).collect())
        .collect()
}

/// `n` pairs whose endpoints follow a (truncated) Zipf distribution with exponent
/// `theta` over `[0, domain)` — value `k` has probability ∝ `1/(k+1)^theta`. Skewed
/// heavy hitters are what break one-pair-at-a-time plans.
pub fn zipf_pairs(n: usize, domain: u64, theta: f64, seed: u64) -> Vec<(Value, Value)> {
    assert!(domain > 0);
    let mut rng = SplitMix64::new(seed);
    // inverse-CDF sampling over the precomputed harmonic weights
    let weights: Vec<f64> = (0..domain)
        .map(|k| 1.0 / ((k + 1) as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(domain as usize);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let sample = |rng: &mut SplitMix64| -> Value {
        let u = rng.unit_f64();
        match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i as u64).min(domain - 1),
        }
    };
    (0..n)
        .map(|_| (sample(&mut rng), sample(&mut rng)))
        .collect()
}

/// The default domain heuristic: `~2·sqrt(n)` distinct values, dense enough that
/// joins have non-trivial output without exploding.
fn default_domain(n: usize) -> u64 {
    (2.0 * (n as f64).sqrt()).ceil() as u64 + 1
}

/// Triangle query `Q(A,B,C) ← R(A,B), S(B,C), T(A,C)` over three independent
/// uniform random relations of (up to) `n` tuples each.
pub fn triangle(n: usize, seed: u64) -> Workload {
    let d = default_domain(n);
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_pairs("A", "B", random_pairs(n, d, seed)),
    );
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(n, d, seed ^ 0x5151)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(n, d, seed ^ 0xA3A3)),
    );
    Workload {
        name: format!("triangle_n{n}"),
        query: examples::triangle(),
        db,
    }
}

/// The selective repeated-query shape an access cache targets (experiment E8):
/// a tiny probe relation `R` of (up to) 64 rows joined against two relations `S`
/// and `T` of (up to) `n` — the dashboard-query regime. The join touches little
/// — its work is bounded by `R`'s rows under an order that binds `R` first —
/// but an uncached execution still pays two full `n`-row builds.
pub fn needle(n: usize, seed: u64) -> Workload {
    let d = (n as u64 / 4).max(16);
    let pairs = |rows, salt| random_pairs(rows, d, seed ^ salt);
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("A", "B", pairs(64, 0)));
    db.insert("S", Relation::from_pairs("B", "C", pairs(n, 1)));
    db.insert("T", Relation::from_pairs("A", "C", pairs(n, 2)));
    Workload {
        name: format!("needle_n{n}"),
        query: examples::triangle(),
        db,
    }
}

/// [`triangle`] with a batch of fresh edges sealed into `R`'s run, beside `S`
/// and `T` as loaded: `R` is read through the run its seal merged, the others
/// through their loaded runs.
pub fn triangle_live(n: usize, seed: u64) -> Workload {
    let mut w = triangle(n, seed);
    for (a, b) in random_pairs((n / 8).max(4), default_domain(n), seed ^ 0x11FE) {
        w.db.insert_delta("R", vec![a, b]).expect("live insert");
    }
    w.db.seal("R").expect("seal live run");
    w.name = format!("triangle_live_n{n}");
    w
}

/// Triangle query over Zipf-skewed relations with exponent `theta` over
/// `[0, domain)` — the adversarial regime for binary plans.
pub fn triangle_skewed(n: usize, domain: u64, theta: f64, seed: u64) -> Workload {
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_pairs("A", "B", zipf_pairs(n, domain, theta, seed)),
    );
    db.insert(
        "S",
        Relation::from_pairs("B", "C", zipf_pairs(n, domain, theta, seed ^ 0x5151)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", zipf_pairs(n, domain, theta, seed ^ 0xA3A3)),
    );
    Workload {
        name: format!("triangle_zipf_n{n}_t{theta}"),
        query: examples::triangle(),
        db,
    }
}

/// 4-cycle query `Q(A,B,C,D) ← R(A,B), S(B,C), T(C,D), W(D,A)` over uniform random
/// relations of (up to) `n` tuples each.
pub fn four_cycle(n: usize, seed: u64) -> Workload {
    let d = default_domain(n);
    let mut db = Database::new();
    for (i, name) in ["R", "S", "T", "W"].iter().enumerate() {
        let pairs = random_pairs(n, d, seed ^ (0x1111 * (i as u64 + 1)));
        let (a, b) = match i {
            0 => ("A", "B"),
            1 => ("B", "C"),
            2 => ("C", "D"),
            _ => ("D", "A"),
        };
        db.insert(*name, Relation::from_pairs(a, b, pairs));
    }
    Workload {
        name: format!("four_cycle_n{n}"),
        query: examples::four_cycle(),
        db,
    }
}

/// `k`-path query `Q(X0..Xk) ← R1(X0,X1), …, Rk(X_{k-1},Xk)` over uniform random
/// relations of (up to) `n` tuples each. Acyclic — the regime where Yannakakis-style
/// processing is optimal and WCOJ engines must not regress.
pub fn k_path(k: usize, n: usize, seed: u64) -> Workload {
    assert!(k >= 1);
    let d = default_domain(n);
    let mut builder = ConjunctiveQuery::builder();
    let names: Vec<String> = (0..=k).map(|i| format!("X{i}")).collect();
    for i in 0..k {
        builder = builder.atom(&format!("R{}", i + 1), &[&names[i], &names[i + 1]]);
    }
    let query = builder.build().expect("path query is valid");
    let mut db = Database::new();
    for i in 0..k {
        db.insert(
            format!("R{}", i + 1),
            Relation::from_pairs(
                &names[i],
                &names[i + 1],
                random_pairs(n, d, seed ^ (0x2222 * (i as u64 + 1))),
            ),
        );
    }
    Workload {
        name: format!("path{k}_n{n}"),
        query,
        db,
    }
}

/// Star query `Q(A,B1..Bk) ← R1(A,B1), …, Rk(A,Bk)` over uniform random relations
/// of (up to) `n` tuples each.
pub fn star(k: usize, n: usize, seed: u64) -> Workload {
    assert!(k >= 1);
    let d = default_domain(n);
    let query = examples::star(k);
    let mut db = Database::new();
    for i in 1..=k {
        db.insert(
            format!("R{i}"),
            Relation::from_pairs(
                "A",
                &format!("B{i}"),
                random_pairs(n, d, seed ^ (0x3333 * i as u64)),
            ),
        );
    }
    Workload {
        name: format!("star{k}_n{n}"),
        query,
        db,
    }
}

/// The lower-bound instance of Section 1.1 of the paper: each edge relation is a
/// "bowtie" `{0}×[m] ∪ [m]×{0}`, so `|R| = |S| = |T| = 2m − 1` while **every**
/// pairwise join materializes `Ω(m²)` intermediate tuples — yet the output has only
/// `3m − 2` triangles. The instance that separates one-pair-at-a-time plans from
/// worst-case optimal execution.
pub fn triangle_adversarial(m: u64) -> Workload {
    assert!(m >= 1);
    let bowtie = || {
        (0..m)
            .map(|j| (0, j))
            .chain((0..m).map(|i| (i, 0)))
            .collect::<Vec<_>>()
    };
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("A", "B", bowtie()));
    db.insert("S", Relation::from_pairs("B", "C", bowtie()));
    db.insert("T", Relation::from_pairs("A", "C", bowtie()));
    Workload {
        name: format!("triangle_adversarial_m{m}"),
        query: examples::triangle(),
        db,
    }
}

/// Triangle-finding as a self-join: `clique(3)` over a single uniform random edge
/// relation of (up to) `n` tuples.
pub fn clique3(n: usize, seed: u64) -> Workload {
    let d = default_domain(n);
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs("src", "dst", random_pairs(n, d, seed)),
    );
    Workload {
        name: format!("clique3_n{n}"),
        query: examples::clique(3),
        db,
    }
}

/// `k`-clique self-join: `clique(k)` — `C(k, 2)` atoms over one uniform random
/// edge relation of (up to) `n` tuples. Deep variable orders with many
/// participating atoms per level: the stress case for repeated multi-way
/// intersections (each level below the first intersects up to `k − 1` candidate
/// sets), which is exactly what the adaptive kernel layer optimizes.
pub fn kclique(k: usize, n: usize, seed: u64) -> Workload {
    assert!(k >= 2);
    let d = default_domain(n);
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs("src", "dst", random_pairs(n, d, seed)),
    );
    Workload {
        name: format!("clique{k}_n{n}"),
        query: examples::clique(k),
        db,
    }
}

/// A high-skew "hub-and-spoke" triangle workload over a **small dense domain**:
/// every edge has at least one endpoint among `~sqrt(n)/8` hub values, the other
/// endpoint uniform over a domain of `16×` the hub count. The candidate sets under
/// hot prefixes are large, dense, and span only a few thousand values — the regime
/// where the bitmap kernel's word-parallel AND wins, and where one-pair-at-a-time
/// plans drown in heavy-hitter intermediates.
pub fn hub_spoke(n: usize, seed: u64) -> Workload {
    let hubs = (((n as f64).sqrt() / 8.0).ceil() as u64).max(2);
    let domain = hubs * 16;
    let gen_edges = |salt: u64| -> Vec<(Value, Value)> {
        let mut rng = SplitMix64::new(seed ^ salt);
        (0..n)
            .map(|_| {
                let hub = rng.below(hubs);
                let other = rng.below(domain);
                // half the edges lead out of a hub, half into one
                if rng.next_u64() & 1 == 0 {
                    (hub, other)
                } else {
                    (other, hub)
                }
            })
            .collect()
    };
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("A", "B", gen_edges(0x1)));
    db.insert("S", Relation::from_pairs("B", "C", gen_edges(0x2)));
    db.insert("T", Relation::from_pairs("A", "C", gen_edges(0x3)));
    Workload {
        name: format!("hub_spoke_n{n}"),
        query: examples::triangle(),
        db,
    }
}

/// The raw edge pairs behind [`social_graph`], **before** the ids are formatted as
/// strings: Zipf-skewed (`theta = 1.1`) endpoints over the default `~2√n` domain.
/// Public so experiments (e.g. the typed-overhead bench E5) can build the exact
/// pre-encoded `u64` twin of the string-keyed workload without duplicating the
/// distribution parameters.
pub fn social_graph_pairs(n: usize, seed: u64) -> Vec<(Value, Value)> {
    zipf_pairs(n, default_domain(n), 1.1, seed)
}

/// A **string-keyed** social graph: one follows-relation `E(src, dst)` whose
/// endpoints are Zipf-skewed string user ids (`"user<k>"` — note the lexicographic
/// order of the ids disagrees with their numeric popularity order, so dictionary
/// codes are genuinely scrambled relative to the id text). The query is
/// `clique(3)` — mutual-follow triangles — so the same relation's `src` and `dst`
/// columns join against each other, which requires mapping both attributes onto
/// one shared `"user"` dictionary domain ([`Database::set_domain`]).
///
/// This is the end-to-end exercise of the typed-value catalog: strings are
/// interned once per database at load, the engines join pure `u64` codes, and
/// results decode back through the shared dictionary
/// (`wcoj_core::exec::ExecOutput::typed_rows`).
pub fn social_graph(n: usize, seed: u64) -> Workload {
    let pairs = social_graph_pairs(n, seed);
    let mut db = Database::new();
    db.set_domain("src", "user");
    db.set_domain("dst", "user");
    let schema = Schema::with_types(&["src", "dst"], &[AttrType::Str, AttrType::Str]);
    let rows: Vec<Vec<TypedValue>> = pairs
        .into_iter()
        .map(|(a, b)| {
            vec![
                TypedValue::Str(format!("user{a}")),
                TypedValue::Str(format!("user{b}")),
            ]
        })
        .collect();
    db.insert_typed_rows("E", schema, &rows)
        .expect("social graph rows match their schema");
    Workload {
        name: format!("social_n{n}"),
        query: examples::clique(3),
        db,
    }
}

/// One operation of a graph stream: `true` inserts the edge, `false` deletes it.
pub type StreamOp = (bool, (Value, Value));

/// A sliding-window graph stream: `n` uniform random edge insertions over the
/// default `~2√n` domain, interleaved with deletions of the oldest still-live
/// edge once more than `window` edges are live — the classic streaming-motif
/// regime (count triangles over the most recent edges). Deterministic per seed;
/// duplicate insertions and deletions of dead edges are emitted as-is (the
/// delta layer treats them as no-ops, which the differential tests rely on).
pub fn edge_stream_ops(n: usize, window: usize, seed: u64) -> Vec<StreamOp> {
    let domain = default_domain(n);
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(2 * n);
    let mut live: std::collections::VecDeque<(Value, Value)> = std::collections::VecDeque::new();
    for _ in 0..n {
        let e = (rng.below(domain), rng.below(domain));
        ops.push((true, e));
        live.push_back(e);
        if live.len() > window {
            let old = live.pop_front().expect("window exceeded");
            ops.push((false, old));
        }
    }
    ops
}

/// The sliding-window graph stream as a workload: [`edge_stream_ops`] with a
/// `n/2` window applied to a **delta-backed** edge relation `E` through
/// [`Database::insert_delta`] / [`Database::delete`], queried with `clique(3)`
/// (triangles among the live edges). The log seals every `n/8` ops (at least
/// 16), each seal merging inserts and tombstones into its one run, and once
/// more at the end — this is the streaming-ingest scenario of experiment E6.
pub fn edge_stream(n: usize, seed: u64) -> Workload {
    let mut db = Database::new();
    let schema = Schema::new(&["src", "dst"]);
    db.insert_delta_relation("E", wcoj_storage::DeltaRelation::new(schema));
    // seal often enough that even small instances seal several times — the
    // whole point of the workload is a run rewritten by deletes
    db.delta_mut("E")
        .expect("just inserted")
        .set_seal_threshold((n / 8).max(16));
    for (insert, (a, b)) in edge_stream_ops(n, n / 2, seed) {
        if insert {
            db.insert_delta("E", vec![a, b]).expect("stream insert");
        } else {
            db.delete("E", &[a, b]).expect("stream delete");
        }
    }
    db.seal("E").expect("seal stream");
    Workload {
        name: format!("edge_stream_n{n}"),
        query: examples::clique(3),
        db,
    }
}

/// The cache-replay workload: the triangle query over two **delta-backed**
/// Zipf-skewed sliding-window edge streams (`R` and `S` — a run that several
/// seals merged into, plus a still-unsealed buffer tail) and one loaded Zipf
/// relation `T`. Replaying the same query against it is the access-structure
/// cache's target regime (experiment E8): repeated executions hit the cached
/// tries of each log's run, a seal gives a log a new run built once per
/// order, and the live unsealed tail is merged into the run per query exactly
/// as without a cache.
pub fn query_replay(n: usize, seed: u64) -> Workload {
    let domain = default_domain(n);
    let window = (n / 2).max(8);
    let mut db = Database::new();
    for (name, attrs, salt) in [("R", ["A", "B"], 0x7171u64), ("S", ["B", "C"], 0x7272)] {
        let schema = Schema::new(&attrs);
        db.insert_delta_relation(name, wcoj_storage::DeltaRelation::new(schema));
        // seal often enough that even small instances seal several times
        db.delta_mut(name)
            .expect("just inserted")
            .set_seal_threshold((n / 8).max(16));
        let mut live: std::collections::VecDeque<(Value, Value)> =
            std::collections::VecDeque::new();
        for e in zipf_pairs(n, domain, 1.1, seed ^ salt) {
            db.insert_delta(name, vec![e.0, e.1])
                .expect("stream insert");
            live.push_back(e);
            if live.len() > window {
                let old = live.pop_front().expect("window exceeded");
                db.delete(name, &[old.0, old.1]).expect("stream delete");
            }
        }
        // seal the stream, then land a short burst of fresh edges in the
        // buffer: a guaranteed unsealed tail that stays live across replays
        db.seal(name).expect("seal stream");
        for e in zipf_pairs((n / 16).max(4), domain, 1.1, seed ^ salt ^ 0xFF) {
            db.insert_delta(name, vec![e.0, e.1]).expect("tail insert");
        }
    }
    db.insert(
        "T",
        Relation::from_pairs("A", "C", zipf_pairs(n, domain, 1.1, seed ^ 0x7373)),
    );
    Workload {
        name: format!("query_replay_n{n}"),
        query: examples::triangle(),
        db,
    }
}

/// The Loomis–Whitney query `LW(k)` — `k` variables, `k` atoms of arity `k − 1`,
/// each omitting exactly one variable — over uniform random relations of (up to)
/// `n` tuples each. The fractional edge cover number is `k/(k−1)`, so the AGM bound
/// is `N^{k/(k-1)}`: the canonical query family where *every* binary plan is
/// asymptotically suboptimal (Section 4 of the paper), and a shape with wide atoms
/// that exercises the engines beyond binary edge relations.
pub fn loomis_whitney(k: usize, n: usize, seed: u64) -> Workload {
    assert!(k >= 2);
    let query = examples::loomis_whitney(k);
    // domain ~ n^{1/(k-1)} keeps the expected output near the AGM bound's shape
    // without exploding: each atom has n tuples over a (k-1)-dimensional cube.
    let domain = ((n as f64).powf(1.0 / (k as f64 - 1.0)).ceil() as u64 + 1).max(2);
    let mut db = Database::new();
    for (i, atom) in query.atoms().iter().enumerate() {
        let names = query.atom_var_names(i);
        let schema = wcoj_storage::Schema::try_new(names.iter().map(|s| s.to_string()).collect())
            .expect("atom variables are distinct");
        let rows = random_tuples(n, k - 1, domain, seed ^ (0x4444 * (i as u64 + 1)));
        db.insert(atom.name.clone(), Relation::from_rows(schema, rows));
    }
    Workload {
        name: format!("lw{k}_n{n}"),
        query,
        db,
    }
}

/// Loomis–Whitney `LW(3)` (three binary atoms, the "triangle with rotated roles"):
/// see [`loomis_whitney`].
pub fn lw3(n: usize, seed: u64) -> Workload {
    loomis_whitney(3, n, seed)
}

/// Loomis–Whitney `LW(4)` (four ternary atoms): see [`loomis_whitney`].
pub fn lw4(n: usize, seed: u64) -> Workload {
    loomis_whitney(4, n, seed)
}

/// A seeded random sparse hypergraph query: `num_atoms` atoms over `num_vars`
/// variables, each atom of arity 2..=`max_arity` with its variables drawn at
/// random (every variable is covered by at least one atom), bound to independent
/// uniform random relations of (up to) `n` tuples. Sparse — `n` is small relative
/// to the `~2√n` domain — so outputs stay tractable for the nested-loop reference.
/// Exercises arbitrary join shapes (including disconnected ones, which fall back to
/// Cartesian products in the binary baseline) beyond the hand-curated families.
pub fn random_hypergraph(
    num_vars: usize,
    num_atoms: usize,
    max_arity: usize,
    n: usize,
    seed: u64,
) -> Workload {
    assert!(num_vars >= 2 && num_atoms >= 1);
    let max_arity = max_arity.clamp(2, num_vars);
    // coverage anchoring puts ceil(num_vars / num_atoms) variables in an atom, so
    // the arity contract is only satisfiable when the atoms can absorb every var
    assert!(
        num_vars <= num_atoms * max_arity,
        "need num_vars <= num_atoms * max_arity to cover all variables within the arity bound"
    );
    let mut rng = SplitMix64::new(seed);
    let names: Vec<String> = (0..num_vars).map(|i| format!("X{i}")).collect();

    // choose each atom's variable set: a seed member guaranteeing coverage
    // (variable i anchors atom i % num_atoms), then random distinct extras
    let mut atom_vars: Vec<Vec<usize>> = vec![Vec::new(); num_atoms];
    for v in 0..num_vars {
        let a = v % num_atoms;
        if !atom_vars[a].contains(&v) {
            atom_vars[a].push(v);
        }
    }
    for vars in atom_vars.iter_mut() {
        let arity = 2 + rng.below((max_arity - 1) as u64) as usize;
        while vars.len() < arity {
            let v = rng.below(num_vars as u64) as usize;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }

    let mut builder = ConjunctiveQuery::builder();
    for (a, vars) in atom_vars.iter().enumerate() {
        let refs: Vec<&str> = vars.iter().map(|&v| names[v].as_str()).collect();
        builder = builder.atom(&format!("H{a}"), &refs);
    }
    let query = builder.build().expect("random hypergraph query is valid");

    let domain = default_domain(n);
    let mut db = Database::new();
    for (a, vars) in atom_vars.iter().enumerate() {
        let attrs: Vec<String> = vars.iter().map(|&v| names[v].clone()).collect();
        let schema = wcoj_storage::Schema::try_new(attrs).expect("atom variables are distinct");
        let rows = random_tuples(n, vars.len(), domain, seed ^ (0x5555 * (a as u64 + 1)));
        db.insert(format!("H{a}"), Relation::from_rows(schema, rows));
    }
    Workload {
        name: format!("hyper_v{num_vars}a{num_atoms}m{max_arity}_n{n}_s{seed}"),
        query,
        db,
    }
}

/// A small scenario-diverse suite sized for differential tests: every generator at
/// sizes where the nested-loop reference is still tractable.
pub fn differential_suite(seed: u64) -> Vec<Workload> {
    vec![
        triangle(64, seed),
        triangle(256, seed ^ 1),
        triangle_skewed(128, 24, 1.2, seed ^ 2),
        triangle_adversarial(48),
        four_cycle(64, seed ^ 3),
        k_path(3, 96, seed ^ 4),
        star(3, 96, seed ^ 5),
        clique3(96, seed ^ 6),
        lw3(96, seed ^ 7),
        lw4(64, seed ^ 8),
        random_hypergraph(5, 4, 3, 48, seed ^ 9),
        random_hypergraph(6, 4, 4, 32, seed ^ 10),
        kclique(4, 48, seed ^ 11),
        hub_spoke(96, seed ^ 12),
        social_graph(96, seed ^ 13),
        edge_stream(96, seed ^ 14),
        query_replay(96, seed ^ 15),
        triangle_live(256, seed ^ 16),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn random_pairs_reproducible() {
        assert_eq!(random_pairs(50, 10, 3), random_pairs(50, 10, 3));
        assert_ne!(random_pairs(50, 10, 3), random_pairs(50, 10, 4));
    }

    #[test]
    fn zipf_pairs_are_skewed() {
        let pairs = zipf_pairs(10_000, 100, 1.5, 11);
        // the most frequent value must dominate: value 0 should appear in well over
        // 10% of the first coordinates under theta = 1.5
        let zeros = pairs.iter().filter(|(a, _)| *a == 0).count();
        assert!(zeros > 1_000, "zeros = {zeros}");
        assert!(pairs.iter().all(|&(a, b)| a < 100 && b < 100));
    }

    #[test]
    fn generators_bind_all_atoms() {
        for w in differential_suite(42) {
            for i in 0..w.query.atoms().len() {
                let rel = w.db.relation_for_atom(&w.query, i);
                assert!(rel.is_ok(), "{}: atom {i} unbound", w.name);
                assert!(!rel.unwrap().is_empty(), "{}: atom {i} empty", w.name);
            }
        }
    }

    #[test]
    fn workload_names_are_distinct() {
        let names: Vec<String> = differential_suite(1).into_iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn star_and_path_shapes() {
        let p = k_path(3, 32, 5);
        assert_eq!(p.query.num_vars(), 4);
        assert_eq!(p.query.atoms().len(), 3);
        let s = star(4, 32, 5);
        assert_eq!(s.query.num_vars(), 5);
        assert_eq!(s.query.atoms().len(), 4);
    }

    #[test]
    fn loomis_whitney_shapes() {
        let w3 = lw3(64, 9);
        assert_eq!(w3.query.num_vars(), 3);
        assert_eq!(w3.query.atoms().len(), 3);
        assert!(w3.query.atoms().iter().all(|a| a.vars.len() == 2));
        let w4 = lw4(64, 9);
        assert_eq!(w4.query.num_vars(), 4);
        assert_eq!(w4.query.atoms().len(), 4);
        assert!(w4.query.atoms().iter().all(|a| a.vars.len() == 3));
        // every atom bound, deterministic per seed
        for (a, b) in lw4(64, 9)
            .db
            .atom_relations(&w4.query)
            .unwrap()
            .iter()
            .zip(w4.db.atom_relations(&w4.query).unwrap().iter())
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn social_graph_is_string_keyed_and_deterministic() {
        let w = social_graph(64, 7);
        assert_eq!(w.name, "social_n64");
        let e = w.db.delta("E").unwrap().snapshot();
        assert!(e.schema().has_strings());
        assert!(!e.is_empty());
        // one shared dictionary for both endpoint columns
        let user = w.db.dictionary("user").expect("shared user domain");
        assert!(user.len() > 1);
        assert!(user.string(0).unwrap().starts_with("user"));
        // typed bindings validate for the self-join
        assert!(w.db.var_bindings(&w.query).is_ok());
        // deterministic per seed
        let w2 = social_graph(64, 7);
        assert_eq!(e, w2.db.delta("E").unwrap().snapshot());
        assert_ne!(e, social_graph(64, 8).db.delta("E").unwrap().snapshot());
    }

    #[test]
    fn edge_stream_is_windowed_live_and_deterministic() {
        let ops = edge_stream_ops(200, 50, 9);
        assert_eq!(ops, edge_stream_ops(200, 50, 9));
        assert_ne!(ops, edge_stream_ops(200, 50, 10));
        let inserts = ops.iter().filter(|(i, _)| *i).count();
        assert_eq!(inserts, 200);
        assert_eq!(ops.len() - inserts, 150, "deletes lag by the window");

        let w = edge_stream(96, 7);
        assert_eq!(w.name, "edge_stream_n96");
        let delta = w.db.delta("E").expect("delta-backed edge relation");
        // the window keeps at most n/2 edges live (duplicates shrink it further)
        assert!(delta.len() <= 48);
        assert!(delta.len() > 8);
        assert_eq!(delta.buffered(), 0, "workload returns sealed");
        assert_eq!(delta.run_ids().len(), 1);
        // deterministic
        assert_eq!(
            delta.snapshot(),
            edge_stream(96, 7).db.delta("E").unwrap().snapshot()
        );
        assert!(w.db.var_bindings(&w.query).is_ok());
    }

    #[test]
    fn query_replay_is_streaming_skewed_and_deterministic() {
        let w = query_replay(96, 7);
        assert_eq!(w.name, "query_replay_n96");
        // R and S are delta-backed streams with a sealed run AND a live
        // unsealed tail; T is as loaded, one clean run
        for name in ["R", "S"] {
            let delta = w.db.delta(name).expect("delta-backed stream");
            assert_eq!(delta.run_ids().len(), 1, "{name}: sealed");
            assert!(delta.buffered() > 0, "{name}: unsealed tail stays live");
            // the window evicts edges, but heavy Zipf duplicate churn can let
            // the seals annihilate every +1/−1 pair — only liveness is stable
            assert!(!delta.is_empty(), "{name}: live edges survive the window");
        }
        let t = w.db.delta("T").expect("loaded relation");
        assert_eq!((t.run_ids().len(), t.buffered()), (1, 0));
        assert!(w.db.var_bindings(&w.query).is_ok());
        // deterministic per seed
        assert_eq!(
            w.db.delta("R").unwrap().snapshot(),
            query_replay(96, 7).db.delta("R").unwrap().snapshot()
        );
        assert_ne!(
            w.db.delta("R").unwrap().snapshot(),
            query_replay(96, 8).db.delta("R").unwrap().snapshot()
        );
    }

    #[test]
    fn random_hypergraph_covers_all_vars_and_is_deterministic() {
        let w = random_hypergraph(6, 4, 4, 32, 123);
        assert_eq!(w.query.num_vars(), 6);
        assert_eq!(w.query.atoms().len(), 4);
        for v in 0..6 {
            assert!(
                !w.query.atoms_containing(v).is_empty(),
                "variable {v} uncovered"
            );
        }
        for atom in w.query.atoms() {
            assert!(atom.vars.len() >= 2 && atom.vars.len() <= 4);
        }
        let w2 = random_hypergraph(6, 4, 4, 32, 123);
        assert_eq!(w.name, w2.name);
        for i in 0..w.query.atoms().len() {
            assert_eq!(
                w.db.relation_for_atom(&w.query, i).unwrap(),
                w2.db.relation_for_atom(&w2.query, i).unwrap()
            );
        }
        // different seed, different data
        let w3 = random_hypergraph(6, 4, 4, 32, 124);
        assert_ne!(w.name, w3.name);
    }
}
