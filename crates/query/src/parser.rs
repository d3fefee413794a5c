//! A SQL-subset parser for the benchmark workloads.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT COUNT '(' '*' ')' FROM rel (',' rel)* (WHERE expr)? ';'?
//! rel     := ident (AS? ident)?
//! expr    := term (AND term)*
//! term    := factor (OR factor)*            -- OR only within one relation
//! factor  := '(' expr ')' | comparison
//! comparison :=
//!       colref '=' colref                   -- join
//!     | colref ('='|'<'|'<='|'>'|'>=') literal
//!     | colref BETWEEN literal AND literal
//!     | colref LIKE string
//!     | colref IN '(' literal (',' literal)* ')'
//! colref  := ident '.' ident | ident        -- bare only for 1-relation queries
//! literal := integer | float | string
//! ```
//!
//! The parser normalizes the WHERE clause into the [`Query`] form: join
//! edges plus per-relation predicate trees. Top-level ORs mixing relations
//! are rejected (SafeBound's disjunctions are per-relation, §3.2).
//!
//! It is one pass of recursive descent over the bytes of the line, with
//! one token of look-ahead. Tokens borrow from the line, aliases are
//! resolved against the FROM list as conjuncts complete, and the only
//! allocations are the ones the returned [`Query`] owns; parentheses nest
//! at most 64 deep (`MAX_NESTING`). A line with more than one thing wrong
//! reports, in this order: the first malformed lexeme anywhere in it, the
//! first syntax error, the first semantic error (alias resolution, what
//! OR may hold), trailing tokens.

use crate::ast::{CmpOp, Predicate, Query, RelationRef};
use safebound_storage::Value;
use std::borrow::Cow;

/// Deepest accepted nesting of parenthesized expressions. The descent
/// recurses once per level on the connection thread's stack, so the
/// depth a request can ask for has to be bounded by the parser, not by
/// the stack.
const MAX_NESTING: usize = 64;

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn error(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(error(message))
}

/// One lexeme, borrowing from the input line; only a string literal
/// containing `''` owns its (unescaped) text.
#[derive(Debug)]
enum Token<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
    Symbol(&'static str),
}

/// Pull lexer over the bytes of the line. Every position it stops at or
/// slices on follows an ASCII byte, so it is a `char` boundary of `src`.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// The next token, `None` at the end of the input. After an error
    /// `pos` stays on the offending lexeme: lexing again reports it again.
    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let bytes = self.src.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&c) = bytes.get(start) else {
            return Ok(None);
        };
        let follows = |b: u8| bytes.get(start + 1) == Some(&b);
        let (token, end) = match c {
            b'(' => (Token::Symbol("("), start + 1),
            b')' => (Token::Symbol(")"), start + 1),
            b',' => (Token::Symbol(","), start + 1),
            b'.' => (Token::Symbol("."), start + 1),
            b'*' => (Token::Symbol("*"), start + 1),
            b';' => (Token::Symbol(";"), start + 1),
            b'=' => (Token::Symbol("="), start + 1),
            b'<' if follows(b'=') => (Token::Symbol("<="), start + 2),
            b'<' if follows(b'>') => return err("<> (not-equal) predicates are not supported"),
            b'<' => (Token::Symbol("<"), start + 1),
            b'>' if follows(b'=') => (Token::Symbol(">="), start + 2),
            b'>' => (Token::Symbol(">"), start + 1),
            b'\'' => self.string(start)?,
            b'-' | b'0'..=b'9' => self.number(start)?,
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                (Token::Ident(&self.src[start..start + len]), start + len)
            }
            _ => {
                let c = self.src[start..].chars().next().unwrap_or(char::from(c));
                return err(format!("unexpected character {c:?}"));
            }
        };
        self.pos = end;
        Ok(Some(token))
    }

    /// The string literal opening at `open`, and the position past its
    /// closing quote. `''` inside is one quote.
    fn string(&self, open: usize) -> Result<(Token<'a>, usize), ParseError> {
        let bytes = self.src.as_bytes();
        let mut unescaped: Option<String> = None;
        let mut run = open + 1;
        loop {
            let Some(len) = bytes[run..].iter().position(|&b| b == b'\'') else {
                return err("unterminated string literal");
            };
            let quote = run + len;
            if bytes.get(quote + 1) == Some(&b'\'') {
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&self.src[run..=quote]);
                run = quote + 2;
                continue;
            }
            let tail = &self.src[run..quote];
            let text = match unescaped {
                Some(mut s) => {
                    s.push_str(tail);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(tail),
            };
            return Ok((Token::Str(text), quote + 1));
        }
    }

    /// The number starting at `start` (a digit or `-`), and the position
    /// past it.
    fn number(&self, start: usize) -> Result<(Token<'a>, usize), ParseError> {
        let bytes = self.src.as_bytes();
        let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let mut end = start + usize::from(bytes[start] == b'-');
        let mut is_float = false;
        loop {
            if digit_at(end) {
                end += 1;
            } else if bytes.get(end) == Some(&b'.') && digit_at(end + 1) {
                // A '.' followed by a non-digit is a symbol (alias.col).
                is_float = true;
                end += 2;
            } else {
                break;
            }
        }
        let text = &self.src[start..end];
        if text == "-" {
            return err("stray '-'");
        }
        let token = if is_float {
            text.parse().ok().map(Token::Float)
        } else {
            text.parse().ok().map(Token::Int)
        };
        match token {
            Some(token) => Ok((token, end)),
            None => err(format!("bad number {text:?}")),
        }
    }

    /// The first lexical error in the rest of the input, if any.
    fn error_ahead(&mut self) -> Option<ParseError> {
        loop {
            match self.next() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }
}

/// `alias.column`, the alias empty for a bare `column`.
type ColRef<'a> = (&'a str, &'a str);

/// What one operand of `AND`/`OR` came to.
enum Node<'a> {
    /// A comparison with a literal, its alias not yet resolved.
    Pred { alias: &'a str, pred: Predicate },
    /// A column equality.
    Join { left: ColRef<'a>, right: ColRef<'a> },
    /// A conjunction or disjunction, already folded into the query.
    Folded,
}

/// Recursive descent with one token of look-ahead. Joins and predicates
/// are moved into `query` as their conjunct completes; a single
/// comparison travels up as a [`Node`] until it is known whether an `OR`
/// claims it.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The look-ahead token; `None` at the end of the input.
    peeked: Option<Token<'a>>,
    query: Query,
    /// The first semantic error (unknown alias, OR across relations, …).
    /// It is reported only once the whole WHERE clause is syntactically
    /// valid: a syntax error further along the line takes precedence.
    deferred: Option<ParseError>,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Consume the look-ahead token.
    fn advance(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let next = self.lexer.next()?;
        Ok(std::mem::replace(&mut self.peeked, next))
    }

    fn eat_symbol(&mut self, sym: &str) -> Result<bool, ParseError> {
        let found = matches!(self.peeked, Some(Token::Symbol(s)) if s == sym);
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peeked, Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<bool, ParseError> {
        let found = self.peek_keyword(kw);
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.advance()? {
            Some(Token::Symbol(s)) if s == sym => Ok(()),
            t => err(format!("expected {sym:?}, found {t:?}")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.advance()? {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            t => err(format!("expected keyword {kw}, found {t:?}")),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.advance()? {
            Some(Token::Ident(s)) => Ok(s),
            t => err(format!("expected identifier, found {t:?}")),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.advance()? {
            Some(Token::Int(n)) => Ok(Value::Int(n)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(s)) => Ok(Value::Str(s.into_owned())),
            t => err(format!("expected literal, found {t:?}")),
        }
    }

    fn colref(&mut self) -> Result<ColRef<'a>, ParseError> {
        let first = self.ident()?;
        if self.eat_symbol(".")? {
            Ok((first, self.ident()?))
        } else {
            Ok(("", first))
        }
    }

    fn statement(&mut self) -> Result<Query, ParseError> {
        self.peeked = self.lexer.next()?;
        self.expect_keyword("SELECT")?;
        self.expect_keyword("COUNT")?;
        self.expect_symbol("(")?;
        self.expect_symbol("*")?;
        self.expect_symbol(")")?;
        self.expect_keyword("FROM")?;
        loop {
            let table = self.ident()?;
            let alias = if self.eat_keyword("AS")? {
                self.ident()?
            } else {
                match self.peeked {
                    Some(Token::Ident(s)) if !s.eq_ignore_ascii_case("WHERE") => self.ident()?,
                    _ => table,
                }
            };
            if self.query.relation_by_alias(alias).is_some() {
                return err(format!("duplicate alias {alias:?}"));
            }
            self.query.add_relation(RelationRef::aliased(table, alias));
            if !self.eat_symbol(",")? {
                break;
            }
        }
        if self.eat_keyword("WHERE")? {
            let clause = self.expr()?;
            self.fold(clause);
            if let Some(e) = self.deferred.take() {
                return Err(e);
            }
        }
        self.eat_symbol(";")?;
        if let Some(t) = &self.peeked {
            return err(format!("trailing tokens starting at {t:?}"));
        }
        Ok(std::mem::take(&mut self.query))
    }

    fn expr(&mut self) -> Result<Node<'a>, ParseError> {
        let first = self.term()?;
        if !self.peek_keyword("AND") {
            return Ok(first);
        }
        self.fold(first);
        while self.eat_keyword("AND")? {
            let conjunct = self.term()?;
            self.fold(conjunct);
        }
        Ok(Node::Folded)
    }

    fn term(&mut self) -> Result<Node<'a>, ParseError> {
        let mut clean = self.deferred.is_none();
        let first = self.factor()?;
        if !self.peek_keyword("OR") {
            return Ok(first);
        }
        // A disjunction: plain predicates, all on one relation.
        let mut rel = None;
        let mut preds = Vec::new();
        self.disjunct(first, clean, &mut rel, &mut preds);
        while self.eat_keyword("OR")? {
            clean = self.deferred.is_none();
            let operand = self.factor()?;
            self.disjunct(operand, clean, &mut rel, &mut preds);
        }
        if let (Some(rel), None) = (rel, &self.deferred) {
            self.query.add_predicate(rel, Predicate::Or(preds));
        }
        Ok(Node::Folded)
    }

    fn factor(&mut self) -> Result<Node<'a>, ParseError> {
        if !self.eat_symbol("(")? {
            return self.comparison();
        }
        if self.depth == MAX_NESTING {
            return err(format!(
                "expression nested deeper than {MAX_NESTING} levels"
            ));
        }
        self.depth += 1;
        let inner = self.expr()?;
        self.depth -= 1;
        self.expect_symbol(")")?;
        Ok(inner)
    }

    fn comparison(&mut self) -> Result<Node<'a>, ParseError> {
        let (alias, col) = self.colref()?;
        let column = || col.to_string();
        let pred = match self.advance()? {
            Some(Token::Symbol("=")) => {
                // Join or equality literal?
                if let Some(Token::Ident(_)) = self.peeked {
                    let right = self.colref()?;
                    return Ok(Node::Join {
                        left: (alias, col),
                        right,
                    });
                }
                Predicate::Eq(column(), self.literal()?)
            }
            Some(Token::Symbol(op @ ("<" | "<=" | ">" | ">="))) => {
                let op = match op {
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                Predicate::Cmp(column(), op, self.literal()?)
            }
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("BETWEEN") => {
                let lo = self.literal()?;
                self.expect_keyword("AND")?;
                Predicate::Between(column(), lo, self.literal()?)
            }
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("LIKE") => match self.advance()? {
                Some(Token::Str(pattern)) => Predicate::Like(column(), pattern.into_owned()),
                t => return err(format!("LIKE requires a string pattern, found {t:?}")),
            },
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("IN") => {
                self.expect_symbol("(")?;
                let mut vals = vec![self.literal()?];
                while self.eat_symbol(",")? {
                    vals.push(self.literal()?);
                }
                self.expect_symbol(")")?;
                Predicate::In(column(), vals)
            }
            t => return err(format!("expected comparison operator, found {t:?}")),
        };
        Ok(Node::Pred { alias, pred })
    }

    /// Resolve an alias (possibly empty) to a relation index.
    fn resolve(&self, alias: &str) -> Result<usize, ParseError> {
        if !alias.is_empty() {
            self.query
                .relation_by_alias(alias)
                .ok_or_else(|| error(format!("unknown alias {alias:?}")))
        } else if self.query.num_relations() == 1 {
            Ok(0)
        } else {
            err("bare column names require a single-relation query")
        }
    }

    /// Move one finished conjunct into the query. Nothing is folded past
    /// the first semantic error: the query is dropped, only the error
    /// survives.
    fn fold(&mut self, node: Node<'a>) {
        if self.deferred.is_some() {
            return;
        }
        let folded = match node {
            Node::Folded => Ok(()),
            Node::Pred { alias, pred } => self
                .resolve(alias)
                .map(|rel| self.query.add_predicate(rel, pred)),
            Node::Join { left, right } => self.fold_join(left, right),
        };
        self.deferred = folded.err();
    }

    fn fold_join(&mut self, left: ColRef<'a>, right: ColRef<'a>) -> Result<(), ParseError> {
        let l = self.resolve(left.0)?;
        let r = self.resolve(right.0)?;
        if l == r {
            return err("intra-relation column equality is not supported");
        }
        self.query.add_join(l, left.1, r, right.1);
        Ok(())
    }

    /// Collect one operand of an `OR` into `preds`. `clean` says no
    /// semantic error was pending before the operand was parsed.
    fn disjunct(
        &mut self,
        operand: Node<'a>,
        clean: bool,
        rel: &mut Option<usize>,
        preds: &mut Vec<Predicate>,
    ) {
        if clean && matches!(operand, Node::Folded) {
            // Whatever is wrong inside a group is hidden by the group
            // being no operand for OR at all.
            self.deferred = None;
        }
        if self.deferred.is_some() {
            return;
        }
        match operand {
            Node::Pred { alias, pred } => match self.resolve(alias) {
                Ok(r) if rel.is_some_and(|seen| seen != r) => {
                    self.deferred = Some(error("OR across different relations is not supported"));
                }
                Ok(r) => {
                    *rel = Some(r);
                    preds.push(pred);
                }
                Err(e) => self.deferred = Some(e),
            },
            Node::Join { .. } | Node::Folded => {
                self.deferred = Some(error("only simple predicates are allowed inside OR"));
            }
        }
    }
}

/// Parse a `SELECT COUNT(*)` SQL string into a [`Query`].
pub fn parse_sql(sql: &str) -> Result<Query, ParseError> {
    let mut parser = Parser {
        lexer: Lexer { src: sql, pos: 0 },
        peeked: None,
        query: Query::new(),
        deferred: None,
        depth: 0,
    };
    // A malformed lexeme anywhere in the line is reported before anything
    // the grammar finds wrong in front of it.
    parser
        .statement()
        .map_err(|e| parser.lexer.error_ahead().unwrap_or(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_job_light_style() {
        let q = parse_sql(
            "SELECT COUNT(*) FROM title t, movie_info mi, movie_keyword mk \
             WHERE t.id = mi.movie_id AND t.id = mk.movie_id \
             AND t.production_year > 2005 AND mi.info_type_id = 16;",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.relations[0].table, "title");
        assert_eq!(q.relations[0].alias, "t");
    }

    #[test]
    fn parse_like_and_in_and_between() {
        let q = parse_sql(
            "SELECT COUNT(*) FROM title t WHERE t.title LIKE '%Dark%' \
             AND t.kind_id IN (1, 2, 7) AND t.production_year BETWEEN 1990 AND 2000",
        )
        .unwrap();
        let p = q.predicate_of(0).unwrap();
        match p {
            Predicate::And(ps) => {
                assert!(
                    matches!(&ps[0], Predicate::Like(c, pat) if c == "title" && pat == "%Dark%")
                );
                assert!(matches!(&ps[1], Predicate::In(_, vs) if vs.len() == 3));
                assert!(matches!(&ps[2], Predicate::Between(..)));
            }
            _ => panic!("expected And"),
        }
    }

    #[test]
    fn parse_or_same_relation() {
        let q =
            parse_sql("SELECT COUNT(*) FROM t WHERE (t.a = 1 OR t.a = 2) AND t.b < 5.5").unwrap();
        match q.predicate_of(0).unwrap() {
            Predicate::And(ps) => {
                assert!(matches!(&ps[0], Predicate::Or(two) if two.len() == 2));
                assert!(
                    matches!(&ps[1], Predicate::Cmp(_, CmpOp::Lt, Value::Float(f)) if *f == 5.5)
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn or_across_relations_rejected() {
        let e = parse_sql("SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND (a.c = 1 OR b.d = 2)")
            .unwrap_err();
        assert!(e.message.contains("OR across different relations"));
    }

    #[test]
    fn bare_columns_single_relation() {
        let q = parse_sql("SELECT COUNT(*) FROM users WHERE age >= 21").unwrap();
        assert!(
            matches!(q.predicate_of(0).unwrap(), Predicate::Cmp(c, CmpOp::Ge, _) if c == "age")
        );
    }

    #[test]
    fn bare_columns_multi_relation_rejected() {
        assert!(parse_sql("SELECT COUNT(*) FROM a, b WHERE x = 1").is_err());
    }

    #[test]
    fn string_escapes() {
        let q = parse_sql("SELECT COUNT(*) FROM t WHERE t.name = 'O''Brien'").unwrap();
        assert!(
            matches!(q.predicate_of(0).unwrap(), Predicate::Eq(_, Value::Str(s)) if s == "O'Brien")
        );
    }

    #[test]
    fn negative_and_float_literals() {
        let q = parse_sql("SELECT COUNT(*) FROM t WHERE t.a > -42 AND t.b < 0.125").unwrap();
        match q.predicate_of(0).unwrap() {
            Predicate::And(ps) => {
                assert!(matches!(
                    &ps[0],
                    Predicate::Cmp(_, CmpOp::Gt, Value::Int(-42))
                ));
                assert!(
                    matches!(&ps[1], Predicate::Cmp(_, CmpOp::Lt, Value::Float(f)) if *f == 0.125)
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn aliases_with_as() {
        let q =
            parse_sql("SELECT COUNT(*) FROM movie_info AS mi, title t WHERE mi.movie_id = t.id")
                .unwrap();
        assert_eq!(q.relations[0].alias, "mi");
        assert_eq!(q.relations[1].alias, "t");
        assert_eq!(q.joins.len(), 1);
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(parse_sql("SELECT COUNT(*) FROM t a, u a").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_sql("SELECT COUNT(*) FROM t WHERE t.a = 1 GROUP BY x").is_err());
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(parse_sql("SELECT COUNT(*) FROM t WHERE t.a = 'oops").is_err());
    }

    #[test]
    fn self_join_with_aliases() {
        let q = parse_sql(
            "SELECT COUNT(*) FROM mc m1, mc m2 WHERE m1.movie_id = m2.movie_id AND m1.year = 2000",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 2);
        assert_eq!(q.relations[0].table, "mc");
        assert_eq!(q.relations[1].table, "mc");
        assert_eq!(q.joins.len(), 1);
    }
}
