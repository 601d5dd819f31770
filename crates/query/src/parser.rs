//! A small text syntax for queries and degree constraints.
//!
//! Queries use datalog syntax:
//!
//! ```text
//! Q(A, B, C) :- R(A, B), S(B, C), T(A, C).
//! ```
//!
//! (The head is optional — `R(A,B), S(B,C), T(A,C).` also parses; trailing period
//! optional.)
//!
//! Constraints use one declaration per line:
//!
//! ```text
//! |R| <= 1000              # cardinality constraint guarded by atom R
//! deg(W; A, D | C) <= 50   # degree constraint (X={C}, Y={A,C,D}) guarded by W
//! S: A -> B                # functional dependency A -> B guarded by S
//! ```
//!
//! Lines starting with `#` (or blank lines) are ignored.

use crate::constraints::{ConstraintSet, DegreeConstraint};
use crate::query::{ConjunctiveQuery, QueryError};
use std::fmt;

/// Parse errors for the query / constraint syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input was empty or contained no atoms.
    Empty,
    /// A syntactic problem, with a human-readable description.
    Syntax(String),
    /// The parsed text referenced an unknown variable or atom.
    Query(QueryError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty query"),
            ParseError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            ParseError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError::Query(e)
    }
}

/// Parse an atom like `R(A, B)` into `(name, vars)`.
fn parse_atom(text: &str) -> Result<(String, Vec<String>), ParseError> {
    let text = text.trim();
    let open = text
        .find('(')
        .ok_or_else(|| ParseError::Syntax(format!("expected `(` in atom `{text}`")))?;
    if !text.ends_with(')') {
        return Err(ParseError::Syntax(format!(
            "expected `)` at end of atom `{text}`"
        )));
    }
    let name = text[..open].trim();
    if name.is_empty() {
        return Err(ParseError::Syntax(format!(
            "missing relation name in `{text}`"
        )));
    }
    let inner = &text[open + 1..text.len() - 1];
    let vars: Vec<String> = inner
        .split(',')
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect();
    if vars.is_empty() {
        return Err(ParseError::Syntax(format!(
            "atom `{name}` has no variables"
        )));
    }
    Ok((name.to_string(), vars))
}

/// Split a comma-separated list of atoms, respecting parentheses.
fn split_atoms(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in body.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parse a conjunctive query from datalog syntax.
pub fn parse_query(text: &str) -> Result<ConjunctiveQuery, ParseError> {
    let text = text.trim().trim_end_matches('.').trim();
    if text.is_empty() {
        return Err(ParseError::Empty);
    }
    // strip optional head
    let body = match text.find(":-") {
        Some(pos) => &text[pos + 2..],
        None => text,
    };
    let atom_texts = split_atoms(body);
    if atom_texts.is_empty() {
        return Err(ParseError::Empty);
    }
    let mut builder = ConjunctiveQuery::builder();
    for at in &atom_texts {
        let (name, vars) = parse_atom(at)?;
        let var_refs: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
        builder = builder.atom(&name, &var_refs);
    }
    Ok(builder.build()?)
}

/// Parse one constraint declaration (see module docs) against `query`.
fn parse_constraint_line(
    line: &str,
    query: &ConjunctiveQuery,
) -> Result<DegreeConstraint, ParseError> {
    let line = line.trim();
    // cardinality: |R| <= N
    if let Some(rest) = line.strip_prefix('|') {
        let close = rest
            .find('|')
            .ok_or_else(|| ParseError::Syntax(format!("expected closing `|` in `{line}`")))?;
        let name = rest[..close].trim();
        let after = rest[close + 1..].trim();
        let bound = parse_bound(after, line)?;
        let idx = query.atom_index(name)?;
        return Ok(DegreeConstraint::cardinality(query.atom_var_set(idx), bound).with_guard(idx));
    }
    // degree: deg(R; Y1, Y2 | X1, X2) <= N     (the `| X...` part optional)
    if let Some(rest) = line.strip_prefix("deg(") {
        let close = rest
            .rfind(')')
            .ok_or_else(|| ParseError::Syntax(format!("expected `)` in `{line}`")))?;
        let inside = &rest[..close];
        let after = rest[close + 1..].trim();
        let bound = parse_bound(after, line)?;
        let (guard_name, spec) = inside
            .split_once(';')
            .ok_or_else(|| ParseError::Syntax(format!("expected `;` after guard in `{line}`")))?;
        let guard_idx = query.atom_index(guard_name.trim())?;
        let (y_part, x_part) = match spec.split_once('|') {
            Some((y, x)) => (y, x),
            None => (spec, ""),
        };
        let xs = parse_var_list(x_part, query)?;
        let mut ys = parse_var_list(y_part, query)?;
        if ys.iter().all(|v| xs.contains(v)) {
            return Err(ParseError::Syntax(format!(
                "degree constraint `{line}` bounds no variable"
            )));
        }
        ys.extend(xs.iter().copied());
        return Ok(DegreeConstraint::new(xs, ys, bound).with_guard(guard_idx));
    }
    // FD: R: A, B -> C
    if let Some((guard_name, fd)) = line.split_once(':') {
        if let Some((lhs, rhs)) = fd.split_once("->") {
            let guard_idx = query.atom_index(guard_name.trim())?;
            let xs = parse_var_list(lhs, query)?;
            let ys = parse_var_list(rhs, query)?;
            if xs.is_empty() || ys.is_empty() {
                return Err(ParseError::Syntax(format!("malformed FD `{line}`")));
            }
            if ys.iter().all(|v| xs.contains(v)) {
                return Err(ParseError::Syntax(format!("trivial FD `{line}`")));
            }
            return Ok(DegreeConstraint::functional_dependency(xs, ys).with_guard(guard_idx));
        }
    }
    Err(ParseError::Syntax(format!(
        "unrecognized constraint `{line}`"
    )))
}

fn parse_bound(text: &str, line: &str) -> Result<u64, ParseError> {
    let rest = text
        .strip_prefix("<=")
        .ok_or_else(|| ParseError::Syntax(format!("expected `<=` in `{line}`")))?;
    rest.trim()
        .parse::<u64>()
        .map_err(|_| ParseError::Syntax(format!("bad bound in `{line}`")))
}

fn parse_var_list(text: &str, query: &ConjunctiveQuery) -> Result<Vec<usize>, ParseError> {
    let mut out = Vec::new();
    for v in text.split(',') {
        let v = v.trim();
        if v.is_empty() {
            continue;
        }
        out.push(query.var_id(v)?);
    }
    Ok(out)
}

/// Parse a multi-line constraint declaration block against `query`.
pub fn parse_constraints(
    text: &str,
    query: &ConjunctiveQuery,
) -> Result<ConstraintSet, ParseError> {
    let mut dc = ConstraintSet::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        dc.push(parse_constraint_line(line, query)?);
    }
    Ok(dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_triangle_with_head() {
        let q = parse_query("Q(A, B, C) :- R(A, B), S(B, C), T(A, C).").unwrap();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.to_string(), "Q(A, B, C) :- R(A, B), S(B, C), T(A, C).");
    }

    #[test]
    fn parse_body_only_no_period() {
        let q = parse_query("R(A,B), S(B,C)").unwrap();
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.num_vars(), 3);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse_query("").unwrap_err(), ParseError::Empty);
        assert!(matches!(
            parse_query("R(A,").unwrap_err(),
            ParseError::Syntax(_)
        ));
        assert!(matches!(
            parse_query("R A,B)").unwrap_err(),
            ParseError::Syntax(_)
        ));
        assert!(matches!(
            parse_query("(A,B)").unwrap_err(),
            ParseError::Syntax(_)
        ));
        assert!(matches!(
            parse_query("R()").unwrap_err(),
            ParseError::Syntax(_)
        ));
        // duplicate variable inside an atom is a query-level error
        assert!(matches!(
            parse_query("R(A,A)").unwrap_err(),
            ParseError::Query(_)
        ));
    }

    #[test]
    fn parse_cardinality_constraints() {
        let q = parse_query("R(A,B), S(B,C), T(A,C)").unwrap();
        let dc = parse_constraints("|R| <= 100\n|S| <= 200\n# comment\n\n|T| <= 300", &q).unwrap();
        assert_eq!(dc.len(), 3);
        assert!(dc.cardinalities_only());
        assert_eq!(dc.constraints()[1].bound, 200);
        assert_eq!(dc.constraints()[2].guard, Some(2));
    }

    #[test]
    fn parse_degree_and_fd_constraints() {
        let q = parse_query("R(A), S(A,B), T(B,C), W(C,A,D)").unwrap();
        let text = "|R| <= 10\n\
                    deg(S; B | A) <= 5\n\
                    deg(W; A, D | C) <= 7\n\
                    S: A -> B";
        let dc = parse_constraints(text, &q).unwrap();
        assert_eq!(dc.len(), 4);
        let deg = &dc.constraints()[2];
        assert_eq!(deg.bound, 7);
        assert_eq!(deg.x, vec![q.var_id("C").unwrap()]);
        assert!(deg.y.contains(&q.var_id("D").unwrap()));
        assert!(deg.y.contains(&q.var_id("A").unwrap()));
        assert_eq!(deg.guard, Some(3));
        let fd = &dc.constraints()[3];
        assert!(fd.is_simple_fd());
        assert_eq!(fd.guard, Some(1));
    }

    #[test]
    fn parse_degree_without_condition() {
        let q = parse_query("R(A,B)").unwrap();
        let dc = parse_constraints("deg(R; A, B) <= 9", &q).unwrap();
        assert!(dc.constraints()[0].is_cardinality());
        assert_eq!(dc.constraints()[0].bound, 9);
    }

    #[test]
    fn parse_constraint_errors() {
        let q = parse_query("R(A,B)").unwrap();
        assert!(parse_constraints("|Z| <= 5", &q).is_err());
        assert!(parse_constraints("|R| < 5", &q).is_err());
        assert!(parse_constraints("|R| <= five", &q).is_err());
        assert!(parse_constraints("deg(R A | B) <= 5", &q).is_err());
        assert!(parse_constraints("deg(R; | A) <= 5", &q).is_err());
        assert!(parse_constraints("R: -> B", &q).is_err());
        assert!(parse_constraints("nonsense", &q).is_err());
        assert!(parse_constraints("R: A -> Z", &q).is_err());
        // trivial after deduplication: `Y ⊆ X`
        assert!(matches!(
            parse_constraints("R: A -> A", &q),
            Err(ParseError::Syntax(_))
        ));
        assert!(matches!(
            parse_constraints("R: A, B -> B, A", &q),
            Err(ParseError::Syntax(_))
        ));
        assert!(matches!(
            parse_constraints("deg(R; A | A) <= 5", &q),
            Err(ParseError::Syntax(_))
        ));
    }

    /// SplitMix64 (Steele et al. 2014) — local copy so the query crate's
    /// tests stay dependency-free.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound.max(1) as u64) as usize
        }
    }

    /// Seeded byte mutations (replace, insert, delete — half the new bytes from
    /// the syntax's own alphabet, half arbitrary, so invalid UTF-8 reaches the
    /// parser through `from_utf8_lossy`) of the module-doc examples: every
    /// input parses to `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_text_never_panics() {
        const ALPHABET: &[u8] = b"ABCDRSTWQ(),.:-><=|;# 059\n";
        let q = parse_query("R(A), S(A,B), T(B,C), W(C,A,D)").unwrap();
        let seeds: [&[u8]; 2] = [
            b"Q(A, B, C) :- R(A, B), S(B, C), T(A, C).",
            b"|R| <= 1000\ndeg(W; A, D | C) <= 50\nS: A -> B\ndeg(S; B | A) <= 5",
        ];
        let mut rng = SplitMix64(0x9A25E);
        for round in 0..20_000 {
            let mut bytes = seeds[round % seeds.len()].to_vec();
            for _ in 0..1 + rng.below(3) {
                let byte = if rng.below(2) == 0 {
                    ALPHABET[rng.below(ALPHABET.len())]
                } else {
                    rng.next() as u8
                };
                let at = rng.below(bytes.len() + 1);
                match rng.below(3) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(byte),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| {
                let _ = parse_query(&text);
                let _ = parse_constraints(&text, &q);
            });
            assert!(outcome.is_ok(), "round {round} panicked on {text:?}");
        }
    }

    #[test]
    fn error_display() {
        assert!(ParseError::Empty.to_string().contains("empty"));
        assert!(ParseError::Syntax("boom".into())
            .to_string()
            .contains("boom"));
        let e: ParseError = QueryError::EmptyQuery.into();
        assert!(!e.to_string().is_empty());
    }
}
