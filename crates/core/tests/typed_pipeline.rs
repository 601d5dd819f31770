//! Differential and property tests for the typed-value catalog.
//!
//! 1. **Typed pipeline differential** (the acceptance criterion): for every
//!    workload of the differential suite, re-loading the data as *strings* through
//!    the shared-dictionary catalog (intern → join → decode) produces exactly the
//!    rows of the pre-encoded `u64` path, for all engines.
//! 2. **Shared vs. merged dictionaries** (property): encoding through one shared
//!    per-domain dictionary is join-equivalent to encoding each relation against
//!    its own dictionaries and unifying them afterwards with
//!    `Dictionary::merge` + column remap — for random string relations, both WCOJ
//!    engines, and threads ∈ {1, 4}.

use wcoj_core::exec::{execute, execute_opts, Engine, ExecOptions};
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::typed::encode_column;
use wcoj_storage::{AttrType, Dictionary, Relation, Schema, TypedValue};
use wcoj_workloads::{differential_suite, SplitMix64, Workload};

/// Decode an execution result through the database's dictionaries and return the
/// rows as sorted string vectors — the external (code-independent) view of a join
/// output.
fn decoded_rows(
    out: &wcoj_core::exec::ExecOutput,
    query: &ConjunctiveQuery,
    db: &Database,
) -> Vec<Vec<String>> {
    let typed = out.typed_rows(query, db).expect("typed view");
    let mut rows: Vec<Vec<String>> = typed
        .to_rows()
        .expect("all codes decode")
        .into_iter()
        .map(|r| r.into_iter().map(|v| v.to_string()).collect())
        .collect();
    rows.sort();
    rows
}

/// Rebuild `w.db` with every value stringified (`v` → `"v<v>"`) and loaded through
/// the typed catalog, with all attributes mapped onto one shared domain (self-join
/// workloads bind one relation's differently-named columns to a single variable).
fn stringified_db(w: &Workload) -> Database {
    let mut db = Database::new();
    let mut names: Vec<&str> = w.db.relation_names();
    names.sort_unstable(); // deterministic interning order
    for name in &names {
        let rel = &w.db.delta(name).expect("listed relation").snapshot();
        for attr in rel.schema().attrs() {
            db.set_domain(attr.clone(), "shared");
        }
        let schema = rel
            .schema()
            .retyped(vec![AttrType::Str; rel.arity()])
            .unwrap();
        let rows: Vec<Vec<TypedValue>> = rel
            .iter()
            .map(|t| {
                t.into_iter()
                    .map(|v| TypedValue::Str(format!("v{v}")))
                    .collect()
            })
            .collect();
        db.insert_typed_rows(name.to_string(), schema, &rows)
            .expect("stringified rows load");
    }
    db
}

/// The acceptance-criteria differential: intern → join → decode over the typed
/// catalog is bit-identical (after decoding back to the integers the strings were
/// minted from) to the pre-encoded `u64` path, on the full suite, for all engines.
#[test]
fn typed_pipeline_matches_pre_encoded_path_on_full_suite() {
    for w in differential_suite(0x7E57) {
        let typed_db = stringified_db(&w);
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let baseline = execute(&w.query, &w.db, engine)
                .unwrap_or_else(|e| panic!("{}: pre-encoded {engine:?} failed: {e}", w.name));
            let typed_out = execute(&w.query, &typed_db, engine)
                .unwrap_or_else(|e| panic!("{}: typed {engine:?} failed: {e}", w.name));
            // decode the typed result and strip the "v" prefix back to u64 rows
            let mut decoded: Vec<Vec<u64>> = decoded_rows(&typed_out, &w.query, &typed_db)
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|s| s[1..].parse().expect("stringified values round-trip"))
                        .collect()
                })
                .collect();
            decoded.sort();
            assert_eq!(
                decoded,
                baseline.result.rows(),
                "{}: {engine:?} typed pipeline diverges from the pre-encoded path",
                w.name
            );
            // same variable order in the output schema
            assert_eq!(
                typed_out.result.schema().attrs(),
                baseline.result.schema().attrs(),
                "{}: {engine:?} output columns differ",
                w.name
            );
        }
    }
}

/// One random string relation: `n` pairs of ids drawn from `[0, domain)`, with the
/// id text scrambling the numeric order.
fn random_string_pairs(n: usize, domain: u64, rng: &mut SplitMix64) -> Vec<Vec<TypedValue>> {
    (0..n)
        .map(|_| {
            vec![
                TypedValue::Str(format!("id{}", rng.below(domain))),
                TypedValue::Str(format!("id{}", rng.below(domain))),
            ]
        })
        .collect()
}

/// Property: loading string relations through the shared per-domain dictionaries
/// is join-equivalent to encoding each relation against its **own** per-relation
/// dictionaries and unifying them afterwards via `Dictionary::merge` + column
/// rewrite (`Database::insert_interned`) — across random instances, both WCOJ
/// engines (plus the binary baseline), and threads ∈ {1, 4}.
#[test]
fn shared_and_merged_dictionaries_are_join_equivalent() {
    let q = wcoj_query::query::examples::triangle();
    let atoms: [(&str, [&str; 2]); 3] = [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["A", "C"])];
    for seed in 0..6 {
        let mut rng = SplitMix64::new(0xD1C7 + seed);
        let mut shared_db = Database::new();
        let mut merged_db = Database::new();
        for (name, attrs) in &atoms {
            let schema = Schema::with_types(&[attrs[0], attrs[1]], &[AttrType::Str, AttrType::Str]);
            let rows = random_string_pairs(48, 12, &mut rng);

            // path A: intern straight into the catalog's shared domains
            shared_db
                .insert_typed_rows(name.to_string(), schema.clone(), &rows)
                .unwrap();

            // path B: per-relation dictionaries, unified afterwards by merge/remap
            let mut dicts = [Dictionary::new(), Dictionary::new()];
            let mut columns = Vec::new();
            for (pos, dict) in dicts.iter_mut().enumerate() {
                columns.push(
                    encode_column(
                        attrs[pos],
                        AttrType::Str,
                        rows.iter().map(|r| &r[pos]),
                        Some(dict),
                    )
                    .unwrap(),
                );
            }
            let rel = Relation::try_from_columns(schema, columns).unwrap();
            let [da, db_] = dicts;
            merged_db
                .insert_interned(name.to_string(), rel, &[Some(da), Some(db_)])
                .unwrap();
        }

        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            for threads in [1usize, 4] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                let a = execute_opts(&q, &shared_db, &opts).unwrap();
                let b = execute_opts(&q, &merged_db, &opts).unwrap();
                assert_eq!(
                    decoded_rows(&a, &q, &shared_db),
                    decoded_rows(&b, &q, &merged_db),
                    "seed {seed}: {engine:?} x{threads}: shared vs merged dictionaries disagree"
                );
            }
        }
    }
}

/// The social-graph workload exercises the whole typed path end to end: skewed
/// string ids, a shared overridden domain, self-join, parallel execution, decode.
#[test]
fn social_graph_decodes_identically_across_engines_and_threads() {
    let w = wcoj_workloads::social_graph(192, 0xBEE);
    let reference = {
        let out = execute(&w.query, &w.db, Engine::BinaryHash).unwrap();
        decoded_rows(&out, &w.query, &w.db)
    };
    assert!(!reference.is_empty(), "social graph should have triangles");
    assert!(reference[0][0].starts_with("user"));
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::new(engine).with_threads(threads);
            let out = execute_opts(&w.query, &w.db, &opts).unwrap();
            assert_eq!(
                decoded_rows(&out, &w.query, &w.db),
                reference,
                "{engine:?} x{threads}"
            );
        }
    }
}
