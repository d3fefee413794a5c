//! The parser's behaviour, frozen case by case.
//!
//! Every row was captured from the tokenizer → `Expr` → `normalize`
//! parser this one replaced (commit c54c3e6): the exact `Query` (as its
//! `Debug` text, which tells `Int(1)` from `Float(1.0)`) or the exact
//! `ParseError::message`, which clients read after `ERR parse: parse
//! error: `. The rows cover every grammar branch and every error site,
//! and the order in which errors of different kinds are reported: a
//! malformed lexeme anywhere in the line first, then the first syntax
//! error, then the first semantic one, then trailing tokens.

use safebound_query::{parse_sql, parse_sql_into, Query};

#[rustfmt::skip]
const FROZEN: &[(&str, Result<&str, &str>)] = &[
    (
        "SELECT COUNT(*) FROM title t, movie_info mi, movie_keyword mk WHERE t.id = mi.movie_id AND t.id = mk.movie_id AND t.production_year > 2005 AND mi.info_type_id = 16;",
        Ok("Query { relations: [RelationRef { table: \"title\", alias: \"t\" }, RelationRef { table: \"movie_info\", alias: \"mi\" }, RelationRef { table: \"movie_keyword\", alias: \"mk\" }], joins: [JoinEdge { left: 0, left_column: \"id\", right: 1, right_column: \"movie_id\" }, JoinEdge { left: 0, left_column: \"id\", right: 2, right_column: \"movie_id\" }], predicates: [(0, Cmp(\"production_year\", Gt, Int(2005))), (1, Eq(\"info_type_id\", Int(16)))] }"),
    ),
    (
        "select Count(*) fRoM title T wHeRe T.id = 5",
        Ok("Query { relations: [RelationRef { table: \"title\", alias: \"T\" }], joins: [], predicates: [(0, Eq(\"id\", Int(5)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM movie_info AS mi, title t WHERE mi.movie_id = t.id",
        Ok("Query { relations: [RelationRef { table: \"movie_info\", alias: \"mi\" }, RelationRef { table: \"title\", alias: \"t\" }], joins: [JoinEdge { left: 0, left_column: \"movie_id\", right: 1, right_column: \"id\" }], predicates: [] }"),
    ),
    (
        "SELECT COUNT(*) FROM movie_info as mi",
        Ok("Query { relations: [RelationRef { table: \"movie_info\", alias: \"mi\" }], joins: [], predicates: [] }"),
    ),
    (
        "SELECT COUNT(*) FROM users WHERE age >= 21",
        Ok("Query { relations: [RelationRef { table: \"users\", alias: \"users\" }], joins: [], predicates: [(0, Cmp(\"age\", Ge, Int(21)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM r",
        Ok("Query { relations: [RelationRef { table: \"r\", alias: \"r\" }], joins: [], predicates: [] }"),
    ),
    (
        "SELECT COUNT(*) FROM r, s;",
        Ok("Query { relations: [RelationRef { table: \"r\", alias: \"r\" }, RelationRef { table: \"s\", alias: \"s\" }], joins: [], predicates: [] }"),
    ),
    (
        "SELECT COUNT(*) FROM t where t.a = 1",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Eq(\"a\", Int(1)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM _t1 x_2 WHERE x_2.c_3 = 7",
        Ok("Query { relations: [RelationRef { table: \"_t1\", alias: \"x_2\" }], joins: [], predicates: [(0, Eq(\"c_3\", Int(7)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.y BETWEEN 1990 AND 2000",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Between(\"y\", Int(1990), Int(2000)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.y between -1.5 and 2.25 AND t.z BETWEEN 'a' AND 'b'",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Between(\"y\", Float(-1.5), Float(2.25)), Between(\"z\", Str(\"a\"), Str(\"b\"))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.k IN (1, 2.5, 'x', -7)",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, In(\"k\", [Int(1), Float(2.5), Str(\"x\"), Int(-7)]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.k in (3)",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, In(\"k\", [Int(3)]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM title t WHERE t.title LIKE '%Dark%' AND t.kind_id IN (1, 2, 7) AND t.production_year BETWEEN 1990 AND 2000",
        Ok("Query { relations: [RelationRef { table: \"title\", alias: \"t\" }], joins: [], predicates: [(0, And([Like(\"title\", \"%Dark%\"), In(\"kind_id\", [Int(1), Int(2), Int(7)]), Between(\"production_year\", Int(1990), Int(2000))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.s like ''",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Like(\"s\", \"\"))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (t.a = 1 OR t.a = 2) AND t.b < 5.5",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Or([Eq(\"a\", Int(1)), Eq(\"a\", Int(2))]), Cmp(\"b\", Lt, Float(5.5))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 OR t.a = 2 AND t.b = 3",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Or([Eq(\"a\", Int(1)), Eq(\"a\", Int(2))]), Eq(\"b\", Int(3))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 or t.b > 2 Or t.c LIKE 'x%'",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Or([Eq(\"a\", Int(1)), Cmp(\"b\", Gt, Int(2)), Like(\"c\", \"x%\")]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN (1, 2) OR t.b BETWEEN 3 AND 4",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Or([In(\"a\", [Int(1), Int(2)]), Between(\"b\", Int(3), Int(4))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (t.a = 1) OR (t.a = 2)",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Or([Eq(\"a\", Int(1)), Eq(\"a\", Int(2))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE ((t.a = 1))",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Eq(\"a\", Int(1)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE ((t.a = 1 OR t.b = 2))",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Or([Eq(\"a\", Int(1)), Eq(\"b\", Int(2))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE (t.a = 1 AND u.b = 2) AND (t.c = 3 AND (t.id = u.id))",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }, RelationRef { table: \"u\", alias: \"u\" }], joins: [JoinEdge { left: 0, left_column: \"id\", right: 1, right_column: \"id\" }], predicates: [(0, And([Eq(\"a\", Int(1)), Eq(\"c\", Int(3))])), (1, Eq(\"b\", Int(2)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND (a.c = 1 OR a.d = 2) AND (b.e = 3 OR b.e = 4)",
        Ok("Query { relations: [RelationRef { table: \"a\", alias: \"a\" }, RelationRef { table: \"b\", alias: \"b\" }], joins: [JoinEdge { left: 0, left_column: \"x\", right: 1, right_column: \"x\" }], predicates: [(0, Or([Eq(\"c\", Int(1)), Eq(\"d\", Int(2))])), (1, Or([Eq(\"e\", Int(3)), Eq(\"e\", Int(4))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.name = 'O''Brien'",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, Eq(\"name\", Str(\"O'Brien\")))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.name = '''' AND t.other = 'a''''b' AND t.third = '''x'''",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Eq(\"name\", Str(\"'\")), Eq(\"other\", Str(\"a''b\")), Eq(\"third\", Str(\"'x'\"))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.name = '' AND t.n = 'café ☕ ; -- ( <> \"'",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Eq(\"name\", Str(\"\")), Eq(\"n\", Str(\"café ☕ ; -- ( <> \\\"\"))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a > -42 AND t.b < 0.125",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Cmp(\"a\", Gt, Int(-42)), Cmp(\"b\", Lt, Float(0.125))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = -.5 AND t.b = -0.0 AND t.c = 007 AND t.d = -9223372036854775808",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Eq(\"a\", Float(-0.5)), Eq(\"b\", Float(-0.0)), Eq(\"c\", Int(7)), Eq(\"d\", Int(-9223372036854775808))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a < 1 AND t.a <= 2 AND t.a > 3 AND t.a >= 4 AND t.a = 5",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Cmp(\"a\", Lt, Int(1)), Cmp(\"a\", Le, Int(2)), Cmp(\"a\", Gt, Int(3)), Cmp(\"a\", Ge, Int(4)), Eq(\"a\", Int(5))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a<=1 AND t.b>=2AND t.c=3",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }], joins: [], predicates: [(0, And([Cmp(\"a\", Le, Int(1)), Cmp(\"b\", Ge, Int(2)), Eq(\"c\", Int(3))]))] }"),
    ),
    (
        "SELECT COUNT(*) FROM mc m1, mc m2 WHERE m1.movie_id = m2.movie_id AND m1.year = 2000",
        Ok("Query { relations: [RelationRef { table: \"mc\", alias: \"m1\" }, RelationRef { table: \"mc\", alias: \"m2\" }], joins: [JoinEdge { left: 0, left_column: \"movie_id\", right: 1, right_column: \"movie_id\" }], predicates: [(0, Eq(\"year\", Int(2000)))] }"),
    ),
    (
        "SELECT\tCOUNT ( * )\r\nFROM t ,\n u WHERE t . a = u . b ;",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"t\" }, RelationRef { table: \"u\", alias: \"u\" }], joins: [JoinEdge { left: 0, left_column: \"a\", right: 1, right_column: \"b\" }], predicates: [] }"),
    ),
    (
        "SELECT COUNT(*) FROM a, b, c WHERE a.p = 1 AND b.q = 2 AND a.r = 3 AND c.s = 4 AND b.t = 5 AND a.u = 6",
        Ok("Query { relations: [RelationRef { table: \"a\", alias: \"a\" }, RelationRef { table: \"b\", alias: \"b\" }, RelationRef { table: \"c\", alias: \"c\" }], joins: [], predicates: [(0, And([Eq(\"p\", Int(1)), Eq(\"r\", Int(3)), Eq(\"u\", Int(6))])), (1, And([Eq(\"q\", Int(2)), Eq(\"t\", Int(5))])), (2, Eq(\"s\", Int(4)))] }"),
    ),
    (
        "SELECT COUNT(*) FROM t AS where",
        Ok("Query { relations: [RelationRef { table: \"t\", alias: \"where\" }], joins: [], predicates: [] }"),
    ),
    (
        "",
        Err("expected keyword SELECT, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t AS \"where\"",
        Err("unexpected character '\"'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1.5.",
        Err("trailing tokens starting at Symbol(\".\")"),
    ),
    (
        "SELECT COUNT(*) FROM t where",
        Err("expected identifier, found None"),
    ),
    (
        "   ",
        Err("expected keyword SELECT, found None"),
    ),
    (
        "this is not sql",
        Err("expected keyword SELECT, found Some(Ident(\"this\"))"),
    ),
    (
        "SELECT",
        Err("expected keyword COUNT, found None"),
    ),
    (
        "SELECT COUNT",
        Err("expected \"(\", found None"),
    ),
    (
        "SELECT COUNT(*)",
        Err("expected keyword FROM, found None"),
    ),
    (
        "SELECT COUNT(x) FROM t",
        Err("expected \"*\", found Some(Ident(\"x\"))"),
    ),
    (
        "SELECT COUNT * FROM t",
        Err("expected \"(\", found Some(Symbol(\"*\"))"),
    ),
    (
        "SELECT COUNT(*",
        Err("expected \")\", found None"),
    ),
    (
        "SELECT SUM(*) FROM t",
        Err("expected keyword COUNT, found Some(Ident(\"SUM\"))"),
    ),
    (
        "SELECT COUNT(*) FROM",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t,",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM 5",
        Err("expected identifier, found Some(Int(5))"),
    ),
    (
        "SELECT COUNT(*) FROM t AS",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t AS 'x'",
        Err("expected identifier, found Some(Str(\"x\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t a b",
        Err("trailing tokens starting at Ident(\"b\")"),
    ),
    (
        "SELECT COUNT(*) FROM t a, u a",
        Err("duplicate alias \"a\""),
    ),
    (
        "SELECT COUNT(*) FROM t, t",
        Err("duplicate alias \"t\""),
    ),
    (
        "SELECT COUNT(*) FROM t a, u a WHERE 'oops",
        Err("unterminated string literal"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE x.a = u.b",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE t.a = x.b",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE x = 1",
        Err("bare column names require a single-relation query"),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE a.x = y",
        Err("bare column names require a single-relation query"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = t.b",
        Err("intra-relation column equality is not supported"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE a = b",
        Err("intra-relation column equality is not supported"),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND (a.c = 1 OR b.d = 2)",
        Err("OR across different relations is not supported"),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE a.x = b.x OR a.c = 1",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM a, b WHERE a.c = 1 OR a.x = b.x",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (t.a = 1 OR t.a = 2) OR t.a = 3",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 3 OR (t.a = 1 OR t.a = 2)",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (t.a = 1 AND t.b = 2) OR t.c = 3",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (x.a = 1 AND t.b = 2) OR t.c = 3",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.c = 3 OR (x.a = 1 AND t.b = 2)",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE (t.a = 1 OR u.b = 2) OR t.c = 3",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1 OR (t.a = 1 AND t.b = 2)",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1 AND ((y.a = 1 AND t.b = 2) OR t.c = 3)",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE ((y.a = 1 AND t.b = 2) OR t.c = 3) AND x.a = 1",
        Err("only simple predicates are allowed inside OR"),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE t.a = 1 OR x.b = 2 OR u.c = 3",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t, u WHERE t.a = 1 OR u.c = 3 OR x.b = 2",
        Err("OR across different relations is not supported"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1 AND t.b 3",
        Err("expected comparison operator, found Some(Int(3))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1 GROUP BY y",
        Err("unknown alias \"x\""),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE x.a = 1; #",
        Err("unexpected character '#'"),
    ),
    (
        "SELECT FOO 'oops",
        Err("unterminated string literal"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a <> 1",
        Err("<> (not-equal) predicates are not supported"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = - 1",
        Err("stray '-'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = -x",
        Err("stray '-'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = --5",
        Err("stray '-'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 -",
        Err("stray '-'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1-2",
        Err("trailing tokens starting at Int(-2)"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 'oops",
        Err("unterminated string literal"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 'oops''",
        Err("unterminated string literal"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 GROUP BY x",
        Err("trailing tokens starting at Ident(\"GROUP\")"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1;;",
        Err("trailing tokens starting at Symbol(\";\")"),
    ),
    (
        "SELECT COUNT(*) FROM t; WHERE t.a = 1",
        Err("trailing tokens starting at Ident(\"WHERE\")"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 )",
        Err("trailing tokens starting at Symbol(\")\")"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1e5",
        Err("trailing tokens starting at Ident(\"e5\")"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = \"x\"",
        Err("unexpected character '\"'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a != 1",
        Err("unexpected character '!'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.é = 1",
        Err("unexpected character 'é'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 ☕",
        Err("unexpected character '☕'"),
    ),
    (
        "SELECT COUNT(*) FROM t\u{a0}WHERE t.a = 1",
        Err("unexpected character '\\u{a0}'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1\u{c}",
        Err("unexpected character '\\u{c}'"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE (t.a = 1",
        Err("expected \")\", found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE ()",
        Err("expected identifier, found Some(Symbol(\")\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a LIKE 5",
        Err("LIKE requires a string pattern, found Some(Int(5))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a LIKE",
        Err("LIKE requires a string pattern, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a BETWEEN 1 2",
        Err("expected keyword AND, found Some(Int(2))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a BETWEEN x AND 2",
        Err("expected literal, found Some(Ident(\"x\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a BETWEEN 1 AND",
        Err("expected literal, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN 1",
        Err("expected \"(\", found Some(Int(1))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN ()",
        Err("expected literal, found Some(Symbol(\")\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN (1,)",
        Err("expected literal, found Some(Symbol(\")\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN (1 2)",
        Err("expected \")\", found Some(Int(2))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a IN (1, 2",
        Err("expected \")\", found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a",
        Err("expected comparison operator, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a 5",
        Err("expected comparison operator, found Some(Int(5))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.5 = 1",
        Err("expected identifier, found Some(Int(5))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a =",
        Err("expected literal, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t, b WHERE t.a < b.c",
        Err("expected literal, found Some(Ident(\"b\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = .5",
        Err("expected literal, found Some(Symbol(\".\"))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE 5 = t.a",
        Err("expected identifier, found Some(Int(5))"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 AND",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 OR",
        Err("expected identifier, found None"),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 99999999999999999999",
        Err("bad number \"99999999999999999999\""),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1.2.3",
        Err("bad number \"1.2.3\""),
    ),
    (
        "SELECT COUNT(*) FROM t WHERE t.a = 1 AND t.b <> 2 AND 'unterminated",
        Err("<> (not-equal) predicates are not supported"),
    ),
];

#[test]
fn every_frozen_input_parses_to_the_recorded_result() {
    assert!(FROZEN.len() >= 40);
    for (sql, want) in FROZEN {
        let got = parse_sql(sql)
            .map(|q| format!("{q:?}"))
            .map_err(|e| e.message);
        let got = got.as_ref().map(String::as_str).map_err(String::as_str);
        assert_eq!(got, *want, "{sql:?}");
    }
}

/// Parsing into a target that last held another input — parsed or
/// refused — gives exactly what parsing into a new query gives: nothing of
/// the earlier input survives into the later one.
#[test]
fn every_frozen_input_reparses_into_a_used_target_exactly() {
    let fresh: Vec<Result<String, String>> = FROZEN
        .iter()
        .map(|(sql, _)| {
            parse_sql(sql)
                .map(|q| format!("{q:?}"))
                .map_err(|e| e.message)
        })
        .collect();
    for (a, _) in FROZEN {
        for ((b, _), want) in FROZEN.iter().zip(&fresh) {
            let mut target = Query::new();
            let _ = parse_sql_into(a, &mut target);
            let got = parse_sql_into(b, &mut target)
                .map(|()| format!("{target:?}"))
                .map_err(|e| e.message);
            assert_eq!(&got, want, "{b:?} parsed into a target that held {a:?}");
        }
    }
}

fn nested(depth: usize) -> String {
    format!(
        "SELECT COUNT(*) FROM t WHERE {}t.a = 1{}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn nesting_is_accepted_up_to_the_limit_and_refused_past_it() {
    let flat = parse_sql(&nested(0)).unwrap();
    assert_eq!(parse_sql(&nested(64)).unwrap(), flat);
    for depth in [65, 2_000, 100_000] {
        let e = parse_sql(&nested(depth)).unwrap_err();
        assert_eq!(e.message, "expression nested deeper than 64 levels");
    }
    // The limit counts open groups, not groups seen.
    let serial = format!(
        "SELECT COUNT(*) FROM t WHERE {}",
        vec!["((t.a = 1))"; 200].join(" AND ")
    );
    assert_eq!(parse_sql(&serial).unwrap().predicates.len(), 1);
}
