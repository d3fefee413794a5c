//! Deterministic input generation. The database and the query templates
//! are fixed ([`DATA_SEED`]); the traffic over them — draw order, re-drawn
//! literals, plan order, delta rows, oracle sample — is a pure function of
//! `--seed`. Quality metrics (tightness, statistics size) therefore read
//! the same under every seed, and timing metrics see the same request mix
//! in a different order. The program under test only ever sees the
//! generated bytes (wire workloads) or ASTs (in-process workloads).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safebound_datagen::{job_light, job_light_ranges, Zipf};
use std::io::Write as _;

/// Seed of the catalogs and query templates, the one
/// `ExperimentScale::smoke()` uses for the paper workloads.
pub const DATA_SEED: u64 = 42;
/// Skew of the request mix over the templates.
const ZIPF_ALPHA: f64 = 1.1;
/// Re-drawn literals are `|v + d|` for `d` in `[-SPREAD, SPREAD]`: wide
/// enough that a one-literal template seldom repeats a line while its last
/// one is still in the 8192-entry literal cache, and reflected at 0 rather
/// than clamped, because the small ids of this schema (1–12) would
/// otherwise pile half their draws onto 0 — a repeated line, a cache hit.
const LITERAL_SPREAD: i64 = 64;

/// Derive an independent stream seed from the run seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

/// The 270 fixed request lines: all of JOB-light plus the first 200
/// JOB-LightRanges queries, as SQL text.
pub fn templates() -> Vec<String> {
    job_light(DATA_SEED)
        .into_iter()
        .chain(job_light_ranges(DATA_SEED).into_iter().take(200))
        .map(|q| q.sql)
        .collect()
}

/// `len` Zipf(1.1) draws over `0..n`. Which item holds which popularity
/// rank is a fixed permutation (so rank does not follow template order and
/// every seed sees the same mix); the draws themselves follow `seed`.
pub fn zipf_draws(seed: u64, n: usize, len: usize) -> Vec<u32> {
    let by_rank = shuffled(DATA_SEED, n);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x21AF));
    let zipf = Zipf::new(n, ZIPF_ALPHA);
    (0..len)
        .map(|_| by_rank[zipf.sample(&mut rng) - 1] as u32)
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5AFF));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// A lexical piece of a SQL line, as far as literal re-drawing cares.
enum Piece<'a> {
    /// Copied verbatim: punctuation, whitespace, quoted strings, floats.
    Text(&'a str),
    /// Keyword or identifier (digits inside it are not literals).
    Word(&'a str),
    Int(i64),
}

fn pieces(sql: &str) -> Vec<Piece<'_>> {
    let bytes = sql.as_bytes();
    let run = |from: usize, keep: &dyn Fn(u8) -> bool| {
        from + bytes[from..].iter().take_while(|&&b| keep(b)).count()
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i];
        if c == b'\'' {
            // Quoted string; a doubled quote is two adjacent strings here,
            // which copies through just the same.
            i = (run(i + 1, &|b| b != b'\'') + 1).min(bytes.len());
            out.push(Piece::Text(&sql[start..i]));
        } else if c.is_ascii_alphabetic() || c == b'_' {
            i = run(i, &|b| b.is_ascii_alphanumeric() || b == b'_');
            out.push(Piece::Word(&sql[start..i]));
        } else if c.is_ascii_digit() {
            i = run(i, &|b| b.is_ascii_digit());
            let fraction =
                bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
            match sql[start..i].parse() {
                Ok(v) if !fraction => out.push(Piece::Int(v)),
                _ => {
                    if fraction {
                        i = run(i + 1, &|b| b.is_ascii_digit());
                    }
                    out.push(Piece::Text(&sql[start..i]));
                }
            }
        } else {
            i += 1;
            out.push(Piece::Text(&sql[start..i]));
        }
    }
    out
}

/// Re-draw every integer literal of `sql` at the text level, keeping the
/// query shape: digits inside identifiers, quoted strings and floats are
/// left alone, and a `BETWEEN lo AND hi` pair stays ordered.
pub fn redraw_literals(sql: &str, rng: &mut StdRng) -> String {
    let mut ps = pieces(sql);
    for p in &mut ps {
        if let Piece::Int(v) = p {
            *v = (*v + rng.random_range(-LITERAL_SPREAD..=LITERAL_SPREAD)).abs();
        }
    }
    let solid: Vec<usize> = (0..ps.len())
        .filter(|&i| !matches!(ps[i], Piece::Text(t) if t.trim().is_empty()))
        .collect();
    for w in solid.windows(4) {
        if let (Piece::Word(kw), Piece::Int(lo), Piece::Word(and), Piece::Int(hi)) =
            (&ps[w[0]], &ps[w[1]], &ps[w[2]], &ps[w[3]])
        {
            if kw.eq_ignore_ascii_case("BETWEEN") && and.eq_ignore_ascii_case("AND") && lo > hi {
                ps.swap(w[1], w[3]);
            }
        }
    }
    let mut out = String::with_capacity(sql.len() + 8);
    for p in &ps {
        match p {
            Piece::Text(t) | Piece::Word(t) => out.push_str(t),
            Piece::Int(v) => out.push_str(&v.to_string()),
        }
    }
    out
}

/// `n` request lines for the fresh-literal workloads: the templates in
/// turn, every integer literal re-drawn. (Round-robin rather than Zipf: a
/// popular template with one small-domain literal would be a literal-cache
/// hit however its literal is drawn, and this pool exists to miss.)
pub fn fresh_pool(templates: &[String], seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x117E));
    (0..n)
        .map(|i| redraw_literals(&templates[i % templates.len()], &mut rng))
        .collect()
}

/// The bytes of one request: a bare SQL line, or a `BATCH n` header and
/// its lines. Appends to `out` (cleared first), so the timed loop reuses
/// one buffer.
pub fn request_bytes<'a>(lines: impl ExactSizeIterator<Item = &'a str>, out: &mut Vec<u8>) {
    out.clear();
    if lines.len() > 1 {
        // Writing into a Vec cannot fail and, within capacity, does not allocate.
        let _ = writeln!(out, "BATCH {}", lines.len());
    }
    for line in lines {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::parse_sql;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let t = templates();
        let pool = fresh_pool(&t, seed, 2_000);
        let draws = zipf_draws(seed, t.len(), 2_000);
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for chunk in draws.chunks(256) {
            request_bytes(chunk.iter().map(|&i| t[i as usize].as_str()), &mut buf);
            all.extend_from_slice(&buf);
        }
        for chunk in pool.chunks(256) {
            request_bytes(chunk.iter().map(String::as_str), &mut buf);
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn same_seed_same_bytes_and_seeds_differ() {
        assert_eq!(templates().len(), 270);
        assert_eq!(stream_bytes(3), stream_bytes(3));
        assert_ne!(stream_bytes(3), stream_bytes(4));
        assert_eq!(shuffled(3, 344), shuffled(3, 344));
        assert_ne!(shuffled(3, 344), shuffled(4, 344));
        let mut sorted = shuffled(3, 344);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..344).collect::<Vec<_>>());
    }

    #[test]
    fn single_line_requests_have_no_header() {
        let mut buf = Vec::new();
        request_bytes(["SELECT 1"].into_iter(), &mut buf);
        assert_eq!(buf, b"SELECT 1\n");
        request_bytes(["a", "b"].into_iter(), &mut buf);
        assert_eq!(buf, b"BATCH 2\na\nb\n");
    }

    #[test]
    fn zipf_draws_are_skewed_and_in_range() {
        let draws = zipf_draws(1, 270, 50_000);
        assert!(draws.iter().all(|&d| d < 270));
        let mut counts = vec![0u32; 270];
        draws.iter().for_each(|&d| counts[d as usize] += 1);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 > 50_000 / 3, "top ten templates carry {top10}");
    }

    #[test]
    fn redrawn_lines_parse_to_the_same_shape() {
        for seed in [1, 2] {
            let t = templates();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut changed = 0;
            for sql in &t {
                let original = parse_sql(sql).unwrap();
                for _ in 0..4 {
                    let redrawn = redraw_literals(sql, &mut rng);
                    let q = parse_sql(&redrawn).unwrap_or_else(|e| panic!("{redrawn}: {e}"));
                    assert_eq!(q.shape_hash(), original.shape_hash(), "{sql} -> {redrawn}");
                    assert!(q.same_shape(&original));
                    changed += usize::from(redrawn != *sql);
                }
            }
            assert!(changed > t.len() * 3, "only {changed} lines changed");
        }
    }

    #[test]
    fn redraw_keeps_between_ordered_and_strings_intact() {
        let sql =
            "SELECT COUNT(*) FROM title t, movie_info_idx mi_idx2 WHERE t.id = mi_idx2.movie_id \
                   AND t.production_year BETWEEN 1990 AND 1991 AND t.title LIKE '%7 Days%' \
                   AND t.rating < 5.5 AND t.kind_id = 3";
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let out = redraw_literals(sql, &mut rng);
            assert!(out.contains("'%7 Days%'") && out.contains("mi_idx2") && out.contains("5.5"));
            let after = out.split("BETWEEN ").nth(1).unwrap();
            let mut nums = after
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty());
            let lo: i64 = nums.next().unwrap().parse().unwrap();
            let hi: i64 = nums.next().unwrap().parse().unwrap();
            assert!(lo <= hi, "{out}");
            assert!((1926..=2055).contains(&lo) && (1926..=2055).contains(&hi));
        }
    }
}
