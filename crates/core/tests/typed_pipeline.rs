//! Differential tests for the typed-value catalog.
//!
//! **Typed pipeline differential** (the acceptance criterion): for every
//! workload of the differential suite, re-loading the data as *strings* through
//! the shared-dictionary catalog (intern → join → decode) produces exactly the
//! rows of the pre-encoded `u64` path, for all engines.

use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::{AttrType, Relation, TypedValue};
use wcoj_workloads::{differential_suite, Workload};

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
            let baseline = execute_opts(&w.query, &w.db, &ExecOptions::new(engine))
                .unwrap_or_else(|e| panic!("{}: pre-encoded {engine:?} failed: {e}", w.name));
            let typed_out = execute_opts(&w.query, &typed_db, &ExecOptions::new(engine))
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

/// The social-graph workload exercises the whole typed path end to end: skewed
/// string ids, a shared overridden domain, self-join, both WCOJ engines,
/// decode — and decodes to the rows its own pairs give loaded pre-encoded.
#[test]
fn social_graph_decodes_identically_across_engines_and_threads() {
    let w = wcoj_workloads::social_graph(192, 0xBEE);
    let reference = {
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::BinaryHash)).unwrap();
        decoded_rows(&out, &w.query, &w.db)
    };
    assert!(!reference.is_empty(), "social graph should have triangles");
    assert!(reference[0][0].starts_with("user"));
    let mut pre_encoded = Database::new();
    let pairs = wcoj_workloads::social_graph_pairs(192, 0xBEE);
    pre_encoded.insert("E", Relation::from_pairs("src", "dst", pairs));
    let mut ids: Vec<Vec<u64>> = reference
        .iter()
        .map(|row| {
            row.iter()
                .map(|s| s["user".len()..].parse().unwrap())
                .collect()
        })
        .collect();
    ids.sort();
    let raw = execute_opts(
        &w.query,
        &pre_encoded,
        &ExecOptions::new(Engine::BinaryHash),
    )
    .unwrap();
    assert_eq!(ids, raw.result.rows(), "typed and pre-encoded rows differ");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).unwrap();
        assert_eq!(decoded_rows(&out, &w.query, &w.db), reference, "{engine:?}");
    }
}
