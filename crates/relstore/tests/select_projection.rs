//! Seeded oracle test of SELECT projection, ordering and slicing.
//!
//! Random single-table and two-way (INNER and LEFT) join queries over
//! seeded tables with NULL, INTEGER, REAL and TEXT cells must return
//! exactly what a model computes with plain Rust: filter the join
//! product, stable-sort it, project, dedupe, slice. Items mix wildcards,
//! qualified and unqualified columns, aliases and computed expressions;
//! ORDER BY keys are aliases, ordinals, qualified, unqualified and
//! unprojected columns and expressions, ascending or descending; LIMIT and
//! OFFSET take both the Top-K and the full-sort path. Resolution errors
//! must keep their exact messages. Override the seed with
//! `RELSTORE_STRESS_SEED` to explore other data and queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Database, Params, Value};
use std::collections::HashSet;

const A_COLS: [&str; 4] = ["id", "k", "x", "s"];
const B_COLS: [&str; 4] = ["id", "a_id", "y", "s"];
const WORDS: [&str; 5] = ["ant", "Bee", "cat", "dog", "eel"];
const QUERIES: usize = 400;

type Row = Vec<Value>;

/// One position of the join product: a row of `a`, and a row of `b`
/// unless the query is single-table or the row is null-extended.
type Combo<'r> = (&'r Row, Option<&'r Row>);

/// A scalar the generator can put in a select list or an ORDER BY.
#[derive(Clone, Copy, PartialEq)]
enum Term {
    A(usize),
    B(usize),
    /// `a.k * 2 + 1`
    KTimes2Plus1,
    /// `UPPER(a.s)`
    UpperS,
    /// `a.x / 2`
    HalfX,
    /// `b.y - a.id` (joins only)
    YMinusId,
    /// `a.id * 7 % 5`
    IdMod,
}

impl Term {
    fn sql(self, qualified: bool) -> String {
        let q = |t: &str, c: &str| {
            if qualified {
                format!("{t}.{c}")
            } else {
                c.to_string()
            }
        };
        match self {
            Term::A(c) => q("a", A_COLS[c]),
            Term::B(c) => q("b", B_COLS[c]),
            Term::KTimes2Plus1 => "a.k * 2 + 1".into(),
            Term::UpperS => "UPPER(a.s)".into(),
            Term::HalfX => "a.x / 2".into(),
            Term::YMinusId => "b.y - a.id".into(),
            Term::IdMod => "a.id * 7 % 5".into(),
        }
    }

    /// The output name an unaliased item gets.
    fn name(self) -> String {
        match self {
            Term::A(c) => A_COLS[c].into(),
            Term::B(c) => B_COLS[c].into(),
            Term::UpperS => "upper".into(),
            _ => "expr".into(),
        }
    }

    fn eval(self, (a, b): Combo<'_>) -> Value {
        let bcell = |c: usize| b.map_or(Value::Null, |r| r[c].clone());
        match self {
            Term::A(c) => a[c].clone(),
            Term::B(c) => bcell(c),
            Term::KTimes2Plus1 => match a[1] {
                Value::Integer(k) => Value::Integer(k * 2 + 1),
                _ => Value::Null,
            },
            Term::UpperS => match &a[3] {
                Value::Text(s) => Value::Text(s.to_uppercase()),
                _ => Value::Null,
            },
            Term::HalfX => match a[2] {
                Value::Real(x) => Value::Real(x / 2.0),
                _ => Value::Null,
            },
            Term::YMinusId => match (bcell(2), &a[0]) {
                (Value::Integer(y), Value::Integer(id)) => Value::Integer(y - id),
                _ => Value::Null,
            },
            Term::IdMod => match a[0] {
                Value::Integer(id) => Value::Integer(id * 7 % 5),
                _ => Value::Null,
            },
        }
    }

    /// Can this plain column be named without its qualifier?
    fn unambiguous(self, joined: bool) -> bool {
        match self {
            Term::A(c) => !joined || matches!(A_COLS[c], "k" | "x"),
            Term::B(c) => matches!(B_COLS[c], "a_id" | "y"),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Join {
    None,
    Inner,
    Left,
}

/// One generated query: its SQL, its parameters, and everything the
/// model needs to answer it.
struct Query {
    sql: String,
    params: Params,
    join: Join,
    /// ON `b.a_id = a.id` (index probe) rather than `b.y = a.k` (hash).
    on_key: bool,
    filter: Filter,
    /// Output columns in order: name and value.
    outputs: Vec<(String, Term)>,
    /// ORDER BY terms with their direction.
    order: Vec<(Term, bool)>,
    distinct: bool,
    offset: usize,
    limit: Option<usize>,
}

#[derive(Clone, Copy)]
enum Filter {
    All,
    KAtLeast(i64),
    IdIs(i64),
    BYIsNull,
}

fn cell_int(rng: &mut StdRng, hi: i64) -> Value {
    if rng.gen_bool(0.2) {
        Value::Null
    } else {
        Value::Integer(rng.gen_range(0..hi))
    }
}

fn cell_text(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.2) {
        Value::Null
    } else {
        Value::Text(WORDS[rng.gen_range(0..WORDS.len())].into())
    }
}

fn seed_tables(rng: &mut StdRng) -> (Database, Vec<Row>, Vec<Row>) {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, x REAL, s TEXT);
         CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, y INTEGER, s TEXT);
         CREATE INDEX b_a ON b (a_id);",
    )
    .unwrap();
    let mut a_rows = Vec::new();
    for id in 1..=rng.gen_range(12..30i64) {
        let x = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Real(rng.gen_range(-40..40i64) as f64 / 4.0)
        };
        let row = vec![Value::Integer(id), cell_int(rng, 6), x, cell_text(rng)];
        db.execute(
            "INSERT INTO a (id, k, x, s) VALUES (?, ?, ?, ?)",
            &Params::positional(row.clone()),
        )
        .unwrap();
        a_rows.push(row);
    }
    let mut b_rows = Vec::new();
    for id in 1..=rng.gen_range(12..40i64) {
        // a_id may point past `a`: those rows never join
        let row = vec![
            Value::Integer(id),
            cell_int(rng, a_rows.len() as i64 + 6),
            cell_int(rng, 6),
            cell_text(rng),
        ];
        db.execute(
            "INSERT INTO b (id, a_id, y, s) VALUES (?, ?, ?, ?)",
            &Params::positional(row.clone()),
        )
        .unwrap();
        b_rows.push(row);
    }
    (db, a_rows, b_rows)
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn gen_query(rng: &mut StdRng, n_a: i64) -> Query {
    let join = pick(rng, &[Join::None, Join::None, Join::Inner, Join::Left]);
    let joined = join != Join::None;
    let on_key = rng.gen_bool(0.5);
    let mut columns: Vec<Term> = (0..4).map(Term::A).collect();
    let mut computed = vec![Term::KTimes2Plus1, Term::UpperS, Term::HalfX];
    if joined {
        columns.extend((0..4).map(Term::B));
        computed.push(Term::YMinusId);
    }

    let mut items: Vec<String> = Vec::new();
    let mut outputs: Vec<(String, Term)> = Vec::new();
    let mut aliases: Vec<usize> = Vec::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        match rng.gen_range(0..10u32) {
            0 => {
                items.push("*".into());
                outputs.extend(columns.iter().map(|&t| (t.name(), t)));
            }
            1 => {
                let (t, cols) = if joined && rng.gen_bool(0.5) {
                    ("b", &columns[4..])
                } else {
                    ("a", &columns[..4])
                };
                items.push(format!("{t}.*"));
                outputs.extend(cols.iter().map(|&c| (c.name(), c)));
            }
            2..=6 => {
                let t = pick(rng, &columns);
                let qualified = !t.unambiguous(joined) || rng.gen_bool(0.5);
                let mut sql = t.sql(qualified);
                let mut name = t.name();
                if rng.gen_bool(0.4) {
                    name = format!("c{}", outputs.len());
                    sql.push_str(&format!(" AS {name}"));
                    aliases.push(outputs.len());
                }
                items.push(sql);
                outputs.push((name, t));
            }
            _ => {
                let t = pick(rng, &computed);
                let mut sql = t.sql(true);
                let mut name = t.name();
                if rng.gen_bool(0.5) {
                    name = format!("c{}", outputs.len());
                    sql.push_str(&format!(" AS {name}"));
                    aliases.push(outputs.len());
                }
                items.push(sql);
                outputs.push((name, t));
            }
        }
    }

    let mut order: Vec<(Term, bool)> = Vec::new();
    let mut order_sql: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..=3usize) {
        let (sql, term) = match rng.gen_range(0..6u32) {
            0 if !aliases.is_empty() => {
                let i = pick(rng, &aliases);
                (outputs[i].0.clone(), outputs[i].1)
            }
            1 => {
                let i = rng.gen_range(0..outputs.len());
                ((i + 1).to_string(), outputs[i].1)
            }
            2 => {
                let t = pick(rng, &columns);
                (t.sql(true), t)
            }
            3 => {
                let unqualified: Vec<Term> = columns
                    .iter()
                    .copied()
                    .filter(|t| t.unambiguous(joined))
                    .collect();
                let t = pick(rng, &unqualified);
                // an unqualified key names an output column first: only
                // the same column (or a wildcard copy of it) carries its
                // name, since aliases are `c<n>`
                (t.sql(false), t)
            }
            4 => (Term::IdMod.sql(true), Term::IdMod),
            _ => {
                // a column the select list need not show
                let t = pick(rng, &columns);
                (t.sql(true), t)
            }
        };
        let asc = rng.gen_bool(0.5);
        order_sql.push(if asc { sql } else { format!("{sql} DESC") });
        order.push((term, asc));
    }

    let filter = match rng.gen_range(0..6u32) {
        0 => Filter::KAtLeast(rng.gen_range(0..6i64)),
        1 => Filter::IdIs(rng.gen_range(0..n_a + 2)),
        2 if join == Join::Left => Filter::BYIsNull,
        _ => Filter::All,
    };
    let distinct = rng.gen_bool(0.15);
    let sliced = rng.gen_bool(0.6);
    let limit = sliced.then(|| rng.gen_range(0..12usize));
    let offset = if sliced && rng.gen_bool(0.5) {
        rng.gen_range(0..12usize)
    } else {
        0
    };

    let mut params = Params::new();
    let mut sql = format!(
        "SELECT {}{} FROM a",
        if distinct { "DISTINCT " } else { "" },
        items.join(", ")
    );
    if joined {
        sql.push_str(if join == Join::Inner {
            " INNER JOIN b"
        } else {
            " LEFT JOIN b"
        });
        sql.push_str(if on_key {
            " ON b.a_id = a.id"
        } else {
            " ON b.y = a.k"
        });
    }
    match filter {
        Filter::All => {}
        Filter::KAtLeast(lo) => {
            sql.push_str(" WHERE a.k >= :lo");
            params.set("lo", lo);
        }
        Filter::IdIs(id) => {
            sql.push_str(" WHERE a.id = :id");
            params.set("id", id);
        }
        Filter::BYIsNull => sql.push_str(" WHERE b.y IS NULL"),
    }
    if !order_sql.is_empty() {
        sql.push_str(&format!(" ORDER BY {}", order_sql.join(", ")));
    }
    if let Some(l) = limit {
        if rng.gen_bool(0.5) {
            sql.push_str(" LIMIT :lim");
            params.set("lim", l as i64);
        } else {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        if offset > 0 {
            sql.push_str(&format!(" OFFSET {offset}"));
        }
    }
    Query {
        sql,
        params,
        join,
        on_key,
        filter,
        outputs,
        order,
        distinct,
        offset,
        limit,
    }
}

/// The join product in scan order, filtered by the query's WHERE.
fn product<'r>(q: &Query, a_rows: &'r [Row], b_rows: &'r [Row]) -> Vec<Combo<'r>> {
    let sql_eq = |l: &Value, r: &Value| !l.is_null() && !r.is_null() && l == r;
    let mut combos: Vec<Combo<'_>> = Vec::new();
    for a in a_rows {
        if q.join == Join::None {
            combos.push((a, None));
            continue;
        }
        let before = combos.len();
        for b in b_rows {
            let on = if q.on_key {
                sql_eq(&b[1], &a[0])
            } else {
                sql_eq(&b[2], &a[1])
            };
            if on {
                combos.push((a, Some(b)));
            }
        }
        if combos.len() == before && q.join == Join::Left {
            combos.push((a, None));
        }
    }
    combos.retain(|&(a, b)| match q.filter {
        Filter::All => true,
        Filter::KAtLeast(lo) => matches!(a[1], Value::Integer(k) if k >= lo),
        Filter::IdIs(id) => a[0] == Value::Integer(id),
        Filter::BYIsNull => b.is_none_or(|b| b[2].is_null()),
    });
    combos
}

/// The model: the filtered product stable-sorted, projected, deduped and
/// sliced with plain Rust.
fn model(q: &Query, a_rows: &[Row], b_rows: &[Row]) -> (Vec<String>, Vec<Row>) {
    let mut combos = product(q, a_rows, b_rows);
    combos.sort_by(|&l, &r| {
        for &(t, asc) in &q.order {
            let ord = t.eval(l).total_cmp(&t.eval(r));
            let ord = if asc { ord } else { ord.reverse() };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut rows: Vec<Row> = combos
        .iter()
        .map(|&c| q.outputs.iter().map(|(_, t)| t.eval(c)).collect())
        .collect();
    if q.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    let rows = rows
        .into_iter()
        .skip(q.offset)
        .take(q.limit.unwrap_or(usize::MAX))
        .collect();
    let names = q.outputs.iter().map(|(n, _)| n.clone()).collect();
    (names, rows)
}

#[test]
fn seeded_select_matches_model() {
    let seed: u64 = std::env::var("RELSTORE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5E1E_C700);
    let mut rng = StdRng::seed_from_u64(seed);
    let (db, a_rows, b_rows) = seed_tables(&mut rng);
    let (mut top_k, mut full_sort) = (0, 0);
    for case in 0..QUERIES {
        let q = gen_query(&mut rng, a_rows.len() as i64);
        let (names, rows) = model(&q, &a_rows, &b_rows);
        let rs = db
            .query(&q.sql, &q.params)
            .unwrap_or_else(|e| panic!("seed {seed} case {case}: {}: {e}", q.sql));
        assert_eq!(rs.columns(), names, "seed {seed} case {case}: {}", q.sql);
        assert_eq!(rs.rows(), rows, "seed {seed} case {case}: {}", q.sql);
        if let (false, Some(limit), false) = (q.order.is_empty(), q.limit, q.distinct) {
            // the executor answers with Top-K when fewer rows survive
            // than the filtered product holds
            if limit + q.offset < product(&q, &a_rows, &b_rows).len() {
                top_k += 1;
            } else {
                full_sort += 1;
            }
        }
    }
    assert!(
        top_k > 0 && full_sort > 0,
        "seed {seed}: sliced ordered queries must take both paths \
         (top-k {top_k}, full sort {full_sort})"
    );
}

/// Resolution errors keep their messages, with or without rows to
/// project, and whether the rows would be ordered before projection.
#[test]
fn resolution_errors_keep_their_messages() {
    let mut rng = StdRng::seed_from_u64(7);
    let (db, _, _) = seed_tables(&mut rng);
    let cases = [
        (
            "SELECT s FROM a INNER JOIN b ON b.a_id = a.id",
            "unknown column: s is ambiguous",
        ),
        (
            "SELECT a.k FROM a LEFT JOIN b ON b.a_id = a.id ORDER BY id LIMIT 3",
            "unknown column: id is ambiguous",
        ),
        ("SELECT zz.k FROM a", "unknown table: zz"),
        (
            "SELECT a.k FROM a ORDER BY zz.k LIMIT 2",
            "unknown table: zz",
        ),
        ("SELECT zz.* FROM a", "unknown table: zz"),
        ("SELECT nope FROM a", "unknown column: nope"),
        ("SELECT t.nope FROM a t", "unknown column: a.nope"),
        (
            "SELECT a.k FROM a ORDER BY nope LIMIT 2",
            "unknown column: nope",
        ),
        (
            "SELECT a.k, nope FROM a ORDER BY a.k LIMIT 1",
            "unknown column: nope",
        ),
        (
            "SELECT a.k FROM a ORDER BY 2 LIMIT 1",
            "evaluation error: ORDER BY ordinal 2 out of range",
        ),
    ];
    for (sql, message) in cases {
        let err = db.query(sql, &Params::new()).unwrap_err();
        assert_eq!(err.to_string(), message, "{sql}");
    }
}
