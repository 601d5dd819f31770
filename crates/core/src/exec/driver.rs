//! The driver: the one internal entry every public entry calls ([`run`]), the
//! planning step of the wrappers that take no plan ([`plan_and_run`]), and the
//! serial loop that feeds the engine skeleton ([`run_cursors`]).

use super::access::BuiltAccess;
use super::cancel::CANCEL_CHUNK;
use super::engine::{
    first_extension_set, join_extensions, level_scratch, InteriorStep, JoinCtx, KernelExtension,
    LeapfrogRing,
};
use super::trace::{elapsed_ns, Recording};
use super::{binary, CacheMode, CancelToken, ColumnSink, Engine, ExecOptions, ExecOutput};
use crate::error::ExecError;
use crate::planner::{baseline_order, plan, Plan};
use wcoj_obs::LevelRecorder;
use wcoj_query::database::VarBinding;
use wcoj_query::plan::is_valid_order;
use wcoj_query::{ConjunctiveQuery, Database, VarId};
use wcoj_storage::{AttrType, CacheStats, Relation, Schema, TrieCursor, WorkCounter};

/// Plan `query` over `db` for `opts` — `order` costed when given, the binary
/// baseline's identity costed, else the planner's search — and [`run`] the plan.
/// Only the search is timed: a trace's `plan_ns` reads 0 when the order was given.
pub(super) fn plan_and_run(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: Option<&[VarId]>,
    token: Option<&CancelToken>,
) -> Result<ExecOutput, ExecError> {
    // a token that has already fired skips the planning LP as well
    if let Some(t) = token {
        t.check()?;
    }
    let mut rec = Recording::new(opts.trace.is_some());
    let baseline = baseline_order(query, opts);
    let given = order.or(baseline.as_deref());
    let planning = rec.clock();
    let plan = plan(query, db, given)?;
    if given.is_none() {
        rec.plan_ns = elapsed_ns(planning);
    }
    run(query, db, &plan, opts, token, rec)
}

/// Execute `query` over `db` under `plan`'s order as `opts` says, polling
/// `token` if there is one; the trace, if `opts` carries a sink, is finished
/// from `rec` and deposited there.
pub(super) fn run(
    query: &ConjunctiveQuery,
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
    token: Option<&CancelToken>,
    mut rec: Recording,
) -> Result<ExecOutput, ExecError> {
    if let Some(t) = token {
        t.check()?;
    }
    let order = &plan.order[..];
    // a `Plan`'s fields are public, so the order is checked where it is used
    if !is_valid_order(query, order) {
        return Err(ExecError::InvalidOrder(order.to_vec()));
    }
    // Validate the typed-catalog contract up front: every atom binding a variable
    // must agree on its type and dictionary domain, else the engines would compare
    // codes from different value spaces. Also yields the result schema's types.
    let bindings = db.var_bindings(query)?;
    let work = WorkCounter::new();
    let mut cache_stats = CacheStats::default();
    let wcoj = Wcoj {
        query,
        db,
        opts,
        order,
        token,
        bindings: &bindings,
    };
    let result = match opts.engine {
        Engine::BinaryHash => {
            // the baseline's storage operators have no chunk seam: the token is
            // honored only between whole binary joins (coarse, but bounded)
            let joining = rec.clock();
            let rel = binary::binary_hash_plan(query, db, &work, token)?;
            rec.join_ns = elapsed_ns(joining);
            if let Some(t) = token {
                t.check()?;
            }
            rel
        }
        Engine::GenericJoin => wcoj.join::<KernelExtension>(&work, &mut cache_stats, &mut rec)?,
        Engine::Leapfrog => wcoj.join::<LeapfrogRing>(&work, &mut cache_stats, &mut rec)?,
    };
    let out = ExecOutput {
        result,
        work,
        order: order.to_vec(),
        cache_stats,
    };
    if let Some(sink) = &opts.trace {
        sink.record(rec.into_trace(query, opts, &out, plan));
    }
    Ok(out)
}

/// One validated WCOJ execution: what [`run`] resolved before choosing the
/// engine's [`InteriorStep`] by type.
struct Wcoj<'a> {
    query: &'a ConjunctiveQuery,
    db: &'a Database,
    opts: &'a ExecOptions,
    order: &'a [VarId],
    token: Option<&'a CancelToken>,
    bindings: &'a [VarBinding],
}

impl Wcoj<'_> {
    /// Build the access structures, run the skeleton with step `S` over them,
    /// and package the columns as the result relation.
    fn join<S: InteriorStep>(
        &self,
        work: &WorkCounter,
        cache_stats: &mut CacheStats,
        rec: &mut Recording,
    ) -> Result<Relation, ExecError> {
        let Wcoj {
            query, db, opts, ..
        } = *self;
        let sources = db.atom_sources(query)?;
        let (participants, positions) = levels_and_positions(query, self.order);
        let building = rec.clock();
        let built = BuiltAccess::build(
            query,
            db,
            &sources,
            &positions,
            opts,
            cache_stats,
            rec.tracing().then_some(&mut rec.atoms),
        )?;
        rec.build_ns = elapsed_ns(building);
        if rec.tracing() {
            rec.levels = Some(LevelRecorder::new(self.order.len()));
        }
        let ctx = JoinCtx {
            counter: work,
            trace: rec.levels.as_ref(),
        };
        let joining = rec.clock();
        let rows = built.run::<S>(&participants, ctx, self.token)?;
        rec.join_ns = elapsed_ns(joining);
        // fold this query's cache activity into the database's cumulative
        // observability counters (guarded so a cache-bypassing run cannot
        // zero the resident-bytes gauge)
        if opts.cache != CacheMode::Off {
            db.cache_counters().record_query(cache_stats);
        }
        rows_to_relation(query, self.order, rows, self.bindings)
    }
}

/// What a (valid) global variable order means for each atom, resolved once:
/// `participants[l]` = the atoms containing the variable bound at level `l`,
/// and per atom the **column positions** of its relation sorted by the level
/// their variable is bound at — the order its runs' tries are built over
/// (every log's columns bind to its atom's variables positionally).
fn levels_and_positions(
    query: &ConjunctiveQuery,
    order: &[VarId],
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut level_of = vec![0usize; order.len()];
    for (level, &v) in order.iter().enumerate() {
        level_of[v] = level;
    }
    let mut participants = vec![Vec::new(); order.len()];
    let mut positions = Vec::with_capacity(query.atoms().len());
    for (i, atom) in query.atoms().iter().enumerate() {
        for &v in &atom.vars {
            participants[level_of[v]].push(i);
        }
        let mut columns: Vec<usize> = (0..atom.vars.len()).collect();
        columns.sort_by_key(|&c| level_of[atom.vars[c]]);
        positions.push(columns);
    }
    (participants, positions)
}

/// Run the skeleton with step `S` over `cursors` (one per atom, positioned at
/// the root): the level-0 intersection, then the engine body over slices of
/// it, all into one [`ColumnSink`] — a single whole-set slice when nothing can
/// cancel the run, [`CANCEL_CHUNK`]-value slices with a token poll between
/// them otherwise. Rows and counters do not depend on the slicing, nor on
/// `ctx.trace`.
pub(super) fn run_cursors<S: InteriorStep>(
    cursors: &mut [TrieCursor<'_>],
    participants: &[Vec<usize>],
    ctx: JoinCtx<'_>,
    token: Option<&CancelToken>,
) -> Result<ColumnSink, ExecError> {
    if let Some(t) = token {
        t.check()?;
    }
    let e0 = first_extension_set(cursors, &participants[0], ctx);
    let mut sink = ColumnSink::new(participants.len());
    let mut scratch = level_scratch(participants);
    let slice_len = match token {
        Some(_) => CANCEL_CHUNK,
        None => e0.len().max(1),
    };
    for slice in e0.chunks(slice_len) {
        if let Some(t) = token {
            t.check()?;
        }
        join_extensions::<S>(cursors, participants, slice, ctx, &mut sink, &mut scratch);
    }
    Ok(sink)
}

/// Package the engines' output — one column per level of the join order — as a
/// relation with columns in variable-id order. Only the column *vector* is
/// permuted; no value moves. Under the identity order (the default planner's
/// usual choice) the columns are already canonical, and the sink proves it by
/// one count of its deepest column's descents, run only here, where the
/// columns would be adopted: [`Relation::try_from_canonical_columns`] adopts
/// them as they are — no copy, no sort. Under any other order, or
/// should the sink's check ever fail, [`Relation::try_from_columns`]
/// canonicalizes them (packs, radix-sorts and unpacks in place) exactly as
/// before. Each output column carries the [`AttrType`] of its variable's binding,
/// so dictionary-encoded results stay decodable (and bit-compatible with the
/// binary baseline, whose schemas flow through the storage operators).
fn rows_to_relation(
    query: &ConjunctiveQuery,
    order: &[VarId],
    rows: ColumnSink,
    bindings: &[VarBinding],
) -> Result<Relation, ExecError> {
    let names: Vec<String> = query.var_names().to_vec();
    let types: Vec<AttrType> = (0..names.len() as VarId).map(|v| bindings[v].ty).collect();
    let schema = Schema::try_new_typed(names, types)?;
    // an engine that emits out of level order is a bug: fail every debug-built
    // suite loudly instead of letting the re-sort below mask it
    debug_assert!(
        rows.is_canonical(),
        "a WCOJ engine emits rows strictly ascending in level order"
    );
    let identity = order.iter().enumerate().all(|(level, &v)| v == level);
    let verified = identity && rows.is_canonical();
    let mut columns = vec![Vec::new(); order.len()];
    for (&v, col) in order.iter().zip(rows.into_columns()) {
        columns[v] = col;
    }
    Ok(if verified {
        Relation::try_from_canonical_columns(schema, columns)?
    } else {
        Relation::try_from_columns(schema, columns)?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Trie, Value};
    use wcoj_workloads::{differential_suite, Workload};

    /// The engine body `S` over `w`'s planned order, with level 0 cut into
    /// `len`-value slices (one slice when `len` is `None`): the rows, level by
    /// level, and the work.
    fn sliced<S: InteriorStep>(w: &Workload, len: Option<usize>) -> (Vec<Vec<Value>>, WorkCounter) {
        let order = plan(&w.query, &w.db, None).expect("plan").order;
        let (participants, positions) = levels_and_positions(&w.query, &order);
        let sources = w.db.atom_sources(&w.query).expect("sources");
        let tries: Vec<Trie> = sources
            .iter()
            .zip(&positions)
            .map(|(source, columns)| source.live_run().trie(columns).expect("trie"))
            .collect();
        let mut cursors: Vec<_> = tries.iter().map(Trie::cursor).collect();
        let work = WorkCounter::new();
        let ctx = JoinCtx {
            counter: &work,
            trace: None,
        };
        let e0 = first_extension_set(&mut cursors, &participants[0], ctx);
        let mut sink = ColumnSink::new(participants.len());
        let mut scratch = level_scratch(&participants);
        for slice in e0.chunks(len.unwrap_or(e0.len()).max(1)) {
            join_extensions::<S>(
                &mut cursors,
                &participants,
                slice,
                ctx,
                &mut sink,
                &mut scratch,
            );
        }
        assert!(sink.is_canonical(), "{}: slices emit in order", w.name);
        (sink.into_columns(), work)
    }

    /// Rows and counters do not depend on where level 0 is cut: slices of
    /// every length from 1 to 5 give the whole set's, for both engine steps.
    #[test]
    fn any_cut_of_level_0_gives_the_whole_sets_rows_and_counters() {
        let mut with_rows = 0;
        for w in differential_suite(0x51_1CE) {
            let whole = (
                sliced::<KernelExtension>(&w, None),
                sliced::<LeapfrogRing>(&w, None),
            );
            with_rows += !whole.0 .0[0].is_empty() as usize;
            for len in 1..=5 {
                let at = format!("{} in {len}-value slices", w.name);
                assert_eq!(sliced::<KernelExtension>(&w, Some(len)), whole.0, "{at}");
                assert_eq!(sliced::<LeapfrogRing>(&w, Some(len)), whole.1, "{at}");
            }
        }
        assert!(with_rows >= 15, "{with_rows} shapes with rows");
    }
}
