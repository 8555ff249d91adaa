//! The seeded request streams, and the oracle answer of every text in them.
//!
//! A read stream is one *cycle* of request lines that the driver loops
//! over, round after round. Shapes inside a cycle sit in a
//! fixed weighted round-robin, so the 50 % and 95 % marks of the latency
//! distribution fall inside one shape's cost mode on every run.

use std::collections::HashMap;

use nullrel_core::algebra::Expr;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::attr_set;
use nullrel_core::value::Value;
use nullrel_core::Predicate;
use nullrel_query::ResolvedQuery;
use nullrel_storage::{Database, LogicalOp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::oracle::{quel_lines, Expected, Oracle};
use crate::tables::{CHURN_KEY_BASE, EMP_ROWS};

/// How the oracle plans a QUEL text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OraclePlan {
    /// The logical plan exactly as `plan_access` writes it: the product of
    /// the ranges, one selection, one projection.
    AsPlanned,
    /// Figure 2's self-join written with the reference equijoin, because
    /// the product of `MID` with itself is four million tuples.
    Figure2,
    /// The star join as a chain of reference equijoins, because the
    /// product of its four ranges is two billion tuples.
    Star,
}

/// One request line of a read stream.
#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub oracle: OraclePlan,
}

fn request(line: String) -> Request {
    Request {
        line,
        oracle: OraclePlan::AsPlanned,
    }
}

const POINT_TEXTS: usize = 16;
/// Requests in `lookup_small`'s cycle; about 3 550 of them are distinct.
const LOOKUP_CYCLE: usize = 8192;
const LOOKUP_KEYS: u64 = 4096;
/// Rows `wide_result` returns.
pub const WIDE_ROWS: i64 = 1500;

const FIGURE_2: &str = "QUEL range of e is MID range of m is MID retrieve (e.NAME) \
     where m.SEX = 1 and e.MGR# = m.E# and e.MGR# != e.E# and e.E# != m.MGR#";
const STAR: &str = "QUEL range of a is DIM0 range of b is DIM1 range of c is DIM2 \
     range of f is FACT retrieve (f.F#, a.V0, b.V1, c.V2) \
     where f.FK0 = a.K0 and f.FK1 = b.K1 and f.FK2 = c.K2 and f.F# < 200";
const THETA: &str = "range of a is SMALL range of b is SMALL retrieve (a.E#, b.E#) \
     where a.MGR# > b.MGR# and a.E# < 15 and b.E# < 15";
const DIVIDE: &str = "EXPR (divide (MGR#) (project (MGR# SEX) (select (< E# 300) (scan MID))) \
     (project (SEX) (select (< E# 2) (scan MID))))";
const DIFF: &str = "EXPR (diff (project (E# NAME) (scan MID)) \
     (project (E# NAME) (select (< E# 1900) (scan MID))))";

/// `point_read`'s sixteen hot texts: twelve QUEL point filters, then four
/// MAYBE bands.
fn point_texts(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_6f69_6e74);
    let mut keys: Vec<u64> = Vec::with_capacity(POINT_TEXTS);
    while keys.len() < POINT_TEXTS {
        let k = rng.random_range(0..(EMP_ROWS / 3) as u64);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            if i < 12 {
                format!("QUEL range of e is EMP retrieve (e.NAME) where e.MGR# = {k}")
            } else {
                format!(
                    "MAYBE range of e is EMP retrieve (e.NAME) where e.MGR# = {k} and e.E# < 350"
                )
            }
        })
        .collect()
}

/// One cycle of the workload's read stream.
pub fn read_cycle(workload: &str, seed: u64) -> Vec<Request> {
    match workload {
        "point_read" => {
            // 3 QUEL : 1 MAYBE.
            let texts = point_texts(seed);
            (0..POINT_TEXTS)
                .map(|i| match i % 4 {
                    3 => texts[12 + i / 4].clone(),
                    slot => texts[i / 4 * 3 + slot].clone(),
                })
                .map(request)
                .collect()
        }
        "write_mix" => point_texts(seed)
            .into_iter()
            .take(12)
            .map(request)
            .collect(),
        "lookup_small" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f_6f6b_7570);
            (0..LOOKUP_CYCLE)
                .map(|_| {
                    let k = rng.random_range(0..LOOKUP_KEYS);
                    request(format!(
                        "QUEL range of e is SMALL retrieve (e.NAME) where e.E# = {k}"
                    ))
                })
                .collect()
        }
        "join_read" => {
            let figure_2 = Request {
                line: FIGURE_2.to_owned(),
                oracle: OraclePlan::Figure2,
            };
            let star = Request {
                line: STAR.to_owned(),
                oracle: OraclePlan::Star,
            };
            let others = [
                star,
                request(format!("MAYBE {THETA}")),
                request(DIVIDE.to_owned()),
                request(DIFF.to_owned()),
                request(format!("QUEL {THETA}")),
            ];
            // 10 Figure 2 : 2 of each other shape.
            (0..20)
                .map(|i| match i % 2 {
                    0 => figure_2.clone(),
                    _ => others[i / 2 % others.len()].clone(),
                })
                .collect()
        }
        "wide_result" => {
            let quel = request(format!(
                "QUEL range of e is EMP retrieve (e.E#, e.NAME, e.SEX, e.MGR#) \
                 where e.SEX = 1 and e.E# < {}",
                2 * WIDE_ROWS
            ));
            let expr = request(format!(
                "EXPR (select (and (= SEX 1) (< E# {})) (scan EMP))",
                2 * WIDE_ROWS
            ));
            // 4 QUEL : 1 EXPR.
            vec![quel.clone(), quel.clone(), expr, quel.clone(), quel]
        }
        other => panic!("unknown workload {other}"),
    }
}

/// `n` request lines of the workload's read stream, cycles back to back.
#[cfg(test)]
pub fn read_lines(workload: &str, seed: u64, n: usize) -> Vec<String> {
    let cycle = read_cycle(workload, seed);
    (0..n)
        .map(|i| cycle[i % cycle.len()].line.clone())
        .collect()
}

/// The writer's endless stream: four one-row `INSERT`s of fresh churn
/// keys, then one `DELETE` of every churn row.
pub struct Writer {
    rng: StdRng,
    next_key: i64,
    issued: u64,
    /// Churn rows inserted since the last `DELETE`, in order.
    live: Vec<(i64, i64)>,
}

/// One commit of the writer's stream.
pub struct WriteOp {
    /// The request line that asks the server for it.
    pub line: String,
    /// The same commit for `commit_ops`, which the storage probes call
    /// without a session.
    pub op: LogicalOp,
    /// Rows the server must report as affected.
    pub rows: usize,
}

impl Writer {
    pub fn new(seed: u64) -> Writer {
        Writer {
            rng: StdRng::seed_from_u64(seed ^ 0x0077_7269_7465),
            next_key: CHURN_KEY_BASE,
            issued: 0,
            live: Vec::new(),
        }
    }

    /// The next operation. The caller sends it and, once it is
    /// acknowledged, the writer's view of the churn rows is the history.
    pub fn next_op(&mut self) -> WriteOp {
        let op = if self.issued % 5 == 4 {
            let rows = self.live.len();
            self.live.clear();
            WriteOp {
                line: format!("DELETE EMP E# >= {CHURN_KEY_BASE}"),
                op: LogicalOp::Delete {
                    table: "EMP".to_owned(),
                    column: "E#".to_owned(),
                    op: CompareOp::Ge,
                    value: Value::int(CHURN_KEY_BASE),
                },
                rows,
            }
        } else {
            let key = self.next_key;
            self.next_key += 1;
            let name = self.rng.random_range(0..1_000_000) as i64;
            self.live.push((key, name));
            let cells = [("E#", key), ("NAME", name), ("SEX", 0), ("MGR#", -1)];
            WriteOp {
                line: format!("INSERT EMP E#={key} NAME={name} SEX=0 MGR#=-1"),
                op: LogicalOp::Insert {
                    table: "EMP".to_owned(),
                    cells: cells.map(|(c, v)| (c.to_owned(), Value::int(v))).to_vec(),
                },
                rows: 1,
            }
        };
        self.issued += 1;
        op
    }

    /// Commits issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The `(E#, NAME)` of every churn row the acknowledged history leaves
    /// in `EMP`.
    pub fn live_rows(&self) -> &[(i64, i64)] {
        &self.live
    }
}

/// True when `response` acknowledges a commit that affected `rows` rows.
pub fn write_acknowledged(response: &[String], rows: usize) -> bool {
    matches!(response, [line] if line.starts_with("epoch=")
        && line.ends_with(&format!(" rows={rows}")))
}

fn attr(resolved: &ResolvedQuery, range: usize, column: &str) -> nullrel_core::AttrId {
    resolved.ranges[range].attr_map[column]
}

fn scan(resolved: &ResolvedQuery, range: usize) -> Expr {
    let r = &resolved.ranges[range];
    Expr::named(&r.relation).rename(r.rename.clone())
}

fn targets(resolved: &ResolvedQuery) -> nullrel_core::AttrSet {
    attr_set(resolved.targets.iter().map(|(_, a)| *a))
}

/// Figure 2 with `e.MGR# = m.E#` as a reference equijoin: `m.E#` is
/// renamed onto `e.MGR#`, the single-range conjuncts go below the join,
/// and `e.E# != m.MGR#` stays above it.
fn figure_2_plan(q: &ResolvedQuery) -> Expr {
    let (e, m) = (0, 1);
    let e_mgr = attr(q, e, "MGR#");
    let left = scan(q, e).select(Predicate::attr_attr(e_mgr, CompareOp::Ne, attr(q, e, "E#")));
    let right = scan(q, m)
        .select(Predicate::attr_const(attr(q, m, "SEX"), CompareOp::Eq, 1))
        .rename([(attr(q, m, "E#"), e_mgr)].into_iter().collect());
    left.equijoin(right, attr_set([e_mgr]))
        .select(Predicate::attr_attr(
            attr(q, e, "E#"),
            CompareOp::Ne,
            attr(q, m, "MGR#"),
        ))
        .project(targets(q))
}

/// The star join as `FACT` cut to its 200 rows, then one reference
/// equijoin per dimension with the dimension key renamed onto the
/// foreign key.
fn star_plan(q: &ResolvedQuery) -> Expr {
    let fact = 3;
    let mut plan = scan(q, fact).select(Predicate::attr_const(
        attr(q, fact, "F#"),
        CompareOp::Lt,
        200,
    ));
    for d in 0..3 {
        let fk = attr(q, fact, &format!("FK{d}"));
        let dim = scan(q, d).rename([(attr(q, d, &format!("K{d}")), fk)].into_iter().collect());
        plan = plan.equijoin(dim, attr_set([fk]));
    }
    plan.project(targets(q))
}

/// The oracle's answer to one request.
fn answer(oracle: &mut Oracle<'_>, db: &Database, request: &Request) -> Result<Expected, String> {
    let (verb, text) = request
        .line
        .split_once(' ')
        .ok_or_else(|| format!("no verb in {}", request.line))?;
    let err = |e: &dyn std::fmt::Display| format!("oracle on `{}`: {e}", request.line);
    match verb {
        "QUEL" | "MAYBE" => {
            let band = if verb == "MAYBE" {
                Truth::Ni
            } else {
                Truth::True
            };
            let query = nullrel_query::parse(text).map_err(|e| err(&e))?;
            let resolved = nullrel_query::resolve(db, &query).map_err(|e| err(&e))?;
            let plan = match request.oracle {
                OraclePlan::AsPlanned => nullrel_query::plan::plan_access(&resolved),
                OraclePlan::Figure2 => figure_2_plan(&resolved),
                OraclePlan::Star => star_plan(&resolved),
            };
            let rel = oracle.eval(&plan, band).map_err(|e| err(&e))?;
            let labels: Vec<String> = resolved.targets.iter().map(|(l, _)| l.clone()).collect();
            let attrs: Vec<_> = resolved.targets.iter().map(|(_, a)| *a).collect();
            Ok(Expected::of(&quel_lines(&labels, &attrs, rel.tuples()), 2))
        }
        "EXPR" => {
            let plan = nullrel_serve::expr::parse_expr(text, db.universe()).map_err(|e| err(&e))?;
            let rel = oracle.eval(&plan, Truth::True).map_err(|e| err(&e))?;
            let lines = nullrel_serve::expr::render_rows(rel.tuples(), db.universe());
            Ok(Expected::of(&lines, 1))
        }
        other => Err(format!("the oracle has no rule for {other}")),
    }
}

/// The oracle's answer to every distinct text of `cycle`, over `db`.
pub fn answers(db: &Database, cycle: &[Request]) -> Result<HashMap<String, Expected>, String> {
    let mut oracle = Oracle::new(db);
    let mut out: HashMap<String, Expected> = HashMap::new();
    for request in cycle {
        if !out.contains_key(&request.line) {
            out.insert(request.line.clone(), answer(&mut oracle, db, request)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_other_seed_differs() {
        for w in [
            "point_read",
            "lookup_small",
            "join_read",
            "wide_result",
            "write_mix",
        ] {
            let a = read_lines(w, 7, 300).join("\n");
            assert_eq!(
                a.as_bytes(),
                read_lines(w, 7, 300).join("\n").as_bytes(),
                "{w}"
            );
            let seeded = matches!(w, "point_read" | "lookup_small" | "write_mix");
            assert_eq!(a != read_lines(w, 8, 300).join("\n"), seeded, "{w}");
        }
        let writes = |seed| {
            let mut w = Writer::new(seed);
            (0..50)
                .map(|_| w.next_op().line)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(writes(7).as_bytes(), writes(7).as_bytes());
        assert_ne!(writes(7), writes(8));
    }

    #[test]
    fn cycles_hold_their_weights() {
        let point = read_cycle("point_read", 1);
        assert_eq!(point.len(), 16);
        assert_eq!(
            point.iter().filter(|r| r.line.starts_with("MAYBE")).count(),
            4
        );
        let distinct: std::collections::HashSet<&str> =
            point.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(distinct.len(), 16, "sixteen hot texts");
        let join = read_cycle("join_read", 1);
        assert_eq!(join.len(), 20);
        assert_eq!(
            join.iter()
                .filter(|r| r.oracle == OraclePlan::Figure2)
                .count(),
            10
        );
        for needle in [
            "DIM0",
            "MAYBE",
            "divide",
            "diff",
            "QUEL range of a is SMALL",
        ] {
            assert_eq!(
                join.iter().filter(|r| r.line.contains(needle)).count(),
                2,
                "{needle}"
            );
        }
        let wide = read_cycle("wide_result", 1);
        assert_eq!(
            wide.iter().filter(|r| r.line.starts_with("EXPR")).count(),
            1
        );
        assert_eq!(wide.len(), 5);
    }

    #[test]
    fn the_writer_tracks_the_history_it_issued() {
        let mut w = Writer::new(3);
        let ops: Vec<WriteOp> = (0..12).map(|_| w.next_op()).collect();
        assert!(ops[3].line.starts_with("INSERT EMP E#=1000003 "));
        assert_eq!(
            (ops[4].line.as_str(), ops[4].rows),
            ("DELETE EMP E# >= 1000000", 4)
        );
        assert_eq!(ops[9].rows, 4);
        assert_eq!(w.issued(), 12);
        assert_eq!(
            w.live_rows().iter().map(|r| r.0).collect::<Vec<_>>(),
            [1_000_008, 1_000_009],
            "two inserts since the last delete"
        );
        assert!(write_acknowledged(&["epoch=9 rows=4".to_owned()], 4));
        assert!(!write_acknowledged(&["epoch=9 rows=3".to_owned()], 4));
        assert!(!write_acknowledged(&[], 0));
    }

    /// The hand-written join plans must mean what the planner's product
    /// plans mean. Checked on the real tables at a size the product plan
    /// can still be walked.
    #[test]
    fn equijoin_oracle_plans_equal_the_product_plans() {
        let mut db = crate::tables::build(5);
        // Shrink MID and FACT so the naive products stay small.
        for (table, column, keep) in [("MID", "E#", 60), ("FACT", "F#", 40)] {
            let a = db.universe().lookup(column).unwrap();
            db.table_mut(table)
                .unwrap()
                .delete_where(&Predicate::attr_const(a, CompareOp::Ge, keep))
                .unwrap();
        }
        for d in 0..3 {
            let a = db.universe().lookup(&format!("K{d}")).unwrap();
            db.table_mut(&format!("DIM{d}"))
                .unwrap()
                .delete_where(&Predicate::attr_const(a, CompareOp::Ge, 8))
                .unwrap();
        }
        for (line, plan) in [(FIGURE_2, OraclePlan::Figure2), (STAR, OraclePlan::Star)] {
            let mut oracle = Oracle::new(&db);
            let fast = Request {
                line: line.to_owned(),
                oracle: plan,
            };
            let naive = request(line.to_owned());
            let fast = answer(&mut oracle, &db, &fast).unwrap();
            assert_eq!(fast, answer(&mut oracle, &db, &naive).unwrap(), "{line}");
            assert!(fast.rows() > 0, "{line}");
        }
    }
}
