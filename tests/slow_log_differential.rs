//! The differential suites' QUEL fixtures with the slow-query log armed at
//! 0 ms, which keeps the full trace of every query: tracing must not change
//! a result, and each query must leave exactly one trace.
//!
//! One `#[test]`: the slow log and its threshold are process-wide.

mod ps_fixtures;

use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::obs::{set_slow_query_ms, slow_log};
use nullrel::query::run;
use ps_fixtures::{ps_database, QUEL_FIXTURES};

#[test]
fn quel_fixtures_agree_with_the_slow_log_armed() {
    let db = ps_database();
    let query = |text: &str| run(&db, text, Truth::True, OptimizeOptions::default()).unwrap();
    set_slow_query_ms(None);
    let plain: Vec<_> = QUEL_FIXTURES.iter().map(|text| query(text)).collect();

    set_slow_query_ms(Some(0));
    slow_log().clear();
    for (text, expected) in QUEL_FIXTURES.iter().zip(&plain) {
        let traced = query(text);
        assert_eq!(traced.rows, expected.rows, "{text:?}");
        assert_eq!(traced.columns, expected.columns, "{text:?}");
    }
    set_slow_query_ms(None);

    let traces = slow_log().traces();
    let names: Vec<&str> = traces.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, QUEL_FIXTURES, "one slow-log trace per query");
    assert!(traces.iter().all(|t| !t.spans.is_empty()), "full traces");
}
