//! Where the reach / in-order crossover of the sparse LU solves sits
//! (`a2a_lp::lu::IN_ORDER_DENSITY`): FTRAN and BTRAN whose result pattern fills
//! 0.1 / 1 / 5 / 10 / 25 / 50 % of the dimension, under either kernel, on a fresh
//! factorization and on one carrying Forrest–Tomlin etas.
//!
//! The basis is network-like and sized like the torus-8x8 decomposed master
//! (4,096 rows, ~4 factor nonzeros per flow column — that master refactorizes to
//! 4.3k–23.6k): one block per target density, padded with logical columns. A
//! block is a flow path (`+1` on the diagonal, `-1` below it — the arcs of a tree
//! path) whose columns also load two seeded capacity rows of the block, each
//! held by its slack. `B⁻¹` of a path is all ones below the diagonal, so a unit
//! vector at the path's head (FTRAN) fills the whole block and one at its tail
//! (BTRAN) the whole path, which lets one factorization serve every density
//! row. The `arc` right-hand side `e_head − e_mid` is what an entering flow
//! column looks like: its reach is the whole block, but the path's second half
//! cancels to exact zeros — the structural superset only the reach kernel pays
//! for.
//!
//! Two more groups time what surrounds the numeric passes. `lu_reach` runs the
//! reach kernel on a right-hand side whose one entry is an explicit zero: both
//! symbolic passes of an FTRAN traverse the whole block while the numeric
//! passes have nothing to push, so the figure is the DFS alone (the table in
//! the docs of `symbolic_reach` in `a2a_lp::lu`). `lu_factor` factorizes a
//! 2,048-row basis whose bump — banded, three entries per row and per column,
//! no singleton to peel — covers 60 % of the rows, so nearly every
//! elimination step goes through the Markowitz search as on the genkautz path
//! masters (the table in the docs of `CountBuckets`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

use a2a_lp::lu::{Kernel, LuFactorization, LuScratch};
use a2a_lp::sparse::SparseScratch;

const N: usize = 4096;
/// Block sizes: 0.1, 1, 5, 10, 25 and 50 % of `N`. Four fifths of a block's
/// rows are its path, the rest its capacity rows.
const BLOCKS: [usize; 6] = [4, 41, 205, 410, 1024, 2048];
/// Block sizes of the `lu_reach` group, one basis each: 1, 10, 50 and 100 % of `N`.
const REACH_BLOCKS: [usize; 4] = [41, 410, 2048, 4096];
/// Dimension and bump size of the `lu_factor` basis.
const FACTOR_N: usize = 2048;
const FACTOR_BUMP: usize = 1229;
/// Forrest–Tomlin updates on the "etas" variant (the simplex refactorizes at 100).
const UPDATES: usize = 60;
/// Solves per timed sample.
const BATCH: usize = 32;

type Column = Vec<(usize, f64)>;

/// Columns of the dimension-`N` block basis with the given block sizes, and
/// each block's `(first row, path length)`.
fn network_basis(rng: &mut ChaCha8Rng, blocks: &[usize]) -> (Vec<Column>, Vec<(usize, usize)>) {
    let mut cols: Vec<Column> = Vec::with_capacity(N);
    let mut paths = Vec::new();
    for &size in blocks {
        let start = cols.len();
        let m = size * 4 / 5;
        paths.push((start, m));
        for j in 0..m {
            let mut col = vec![(start + j, 1.0)];
            if j + 1 < m {
                col.push((start + j + 1, -1.0));
            }
            for _ in 0..2 {
                let cap = start + rng.random_range(m..size);
                if col.iter().all(|&(r, _)| r != cap) {
                    col.push((cap, 1.0));
                }
            }
            cols.push(col);
        }
        for cap in start + m..start + size {
            cols.push(vec![(cap, -1.0)]);
        }
    }
    for r in cols.len()..N {
        cols.push(vec![(r, -1.0)]);
    }
    (cols, paths)
}

/// Replaces `UPDATES` seeded path columns by a rescaled copy with a chord to
/// another row of the path, each through a Forrest–Tomlin update.
fn add_etas(
    lu: &mut LuFactorization,
    cols: &[Column],
    paths: &[(usize, usize)],
    rng: &mut ChaCha8Rng,
) {
    let mut scratch = LuScratch::new(N);
    let mut b = SparseScratch::new(N);
    let mut spike = SparseScratch::new(N);
    for _ in 0..UPDATES {
        let (start, m) = paths[rng.random_range(2..paths.len())];
        let j = start + rng.random_range(0..m);
        b.clear();
        for &(r, v) in &cols[j] {
            b.set(r, 1.25 * v);
        }
        let chord = start + rng.random_range(0..m);
        if !b.is_marked(chord) {
            b.set(chord, 0.25);
        }
        lu.ftran_sparse_with_partial(Kernel::Reach, &mut b, &mut scratch, &mut spike);
        assert!(
            lu.replace_column(j, &spike, &mut scratch),
            "bench basis: update of column {j} must be stable"
        );
    }
}

fn bench_solve_density(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10_5017E);
    let (cols, paths) = network_basis(&mut rng, &BLOCKS);
    let fresh = factorize(N, &cols);
    let mut updated = fresh.clone();
    add_etas(&mut updated, &cols, &paths, &mut rng);

    let mut group = c.benchmark_group("lu_solve_density");
    group.sample_size(30);
    let mut scratch = LuScratch::new(N);
    let mut b = SparseScratch::new(N);
    for (variant, lu) in [("fresh", &fresh), ("etas", &updated)] {
        for (&size, &(head, m)) in BLOCKS.iter().zip(&paths) {
            let (mid, tail) = (head + m / 2, head + m - 1);
            let solves: [(&str, &[(usize, f64)]); 3] = [
                ("ftran", &[(head, 1.0)]),
                ("ftran_arc", &[(head, 1.0), (mid, -1.0)]),
                ("btran", &[(tail, 1.0)]),
            ];
            for (solve, rhs) in solves {
                for (name, kernel) in [("reach", Kernel::Reach), ("in_order", Kernel::InOrder)] {
                    let mut pattern = 0;
                    let id = BenchmarkId::new(
                        format!("{variant}/{solve}/{name}"),
                        format!("{:.1}%", 100.0 * size as f64 / N as f64),
                    );
                    group.bench_function(id, |bench| {
                        bench.iter(|| {
                            for _ in 0..BATCH {
                                b.clear();
                                for &(i, v) in rhs {
                                    b.set(i, v);
                                }
                                if solve == "btran" {
                                    lu.btran_sparse(kernel, &mut b, &mut scratch);
                                } else {
                                    lu.ftran_sparse(kernel, &mut b, &mut scratch);
                                }
                                pattern = b.nnz();
                            }
                            black_box(pattern)
                        })
                    });
                    println!("    ({BATCH} solves per sample, result pattern {pattern} of {N})");
                }
            }
        }
    }
    group.finish();
}

/// The DFS alone: FTRAN of an explicit zero at the head of a block. Both
/// triangular stages order the whole block symbolically; numerically there is
/// nothing to push.
fn bench_reach(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_reach");
    group.sample_size(30);
    let mut scratch = LuScratch::new(N);
    let mut b = SparseScratch::new(N);
    for &size in &REACH_BLOCKS {
        let mut rng = ChaCha8Rng::seed_from_u64(0x10_5017E);
        let (cols, paths) = network_basis(&mut rng, &[size]);
        let lu = factorize(N, &cols);
        let head = paths[0].0;
        let mut pattern = 0;
        let id = BenchmarkId::new(
            "symbolic",
            format!("{:.0}%", 100.0 * size as f64 / N as f64),
        );
        group.bench_function(id, |bench| {
            bench.iter(|| {
                for _ in 0..BATCH {
                    b.clear();
                    b.set(head, 0.0);
                    lu.ftran_sparse(Kernel::Reach, &mut b, &mut scratch);
                    pattern = b.nnz();
                }
                black_box(pattern)
            })
        });
        println!("    ({BATCH} solves per sample, result pattern {pattern} of {N})");
    }
    group.finish();
}

/// A basis the singleton worklists cannot peel: the bump is a seeded circulant
/// band (entries at offsets 0, 1 and 6, so every bump row and column holds
/// three), the rest are path arcs loading one bump row each and slacks.
fn bump_basis(rng: &mut ChaCha8Rng) -> Vec<Column> {
    let coeff = |rng: &mut ChaCha8Rng| {
        let magnitude = 0.5 + rng.random_range(0..1000) as f64 / 1000.0;
        [magnitude, -magnitude][rng.random_range(0..2)]
    };
    let m = FACTOR_BUMP;
    let mut cols: Vec<Column> = (0..m)
        .map(|j| {
            [0, 1, 6]
                .map(|offset| ((j + offset) % m, coeff(rng)))
                .to_vec()
        })
        .collect();
    for r in m..FACTOR_N {
        if r % 2 == 0 {
            cols.push(vec![(r, -1.0)]);
        } else {
            cols.push(vec![(r, 1.0), (r - 1, -1.0), (rng.random_range(0..m), 1.0)]);
        }
    }
    cols
}

fn factorize(n: usize, cols: &[Column]) -> LuFactorization {
    LuFactorization::factorize(n, cols.iter().map(|c| c.iter().copied()))
        .expect("bench basis factorizes")
}

fn bench_factor(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFAC70B);
    let cols = bump_basis(&mut rng);
    let mut group = c.benchmark_group("lu_factor");
    group.sample_size(30);
    let mut fill = 0;
    group.bench_function("bump60%", |bench| {
        bench.iter(|| {
            fill = factorize(FACTOR_N, &cols).fill_nnz();
            black_box(fill)
        })
    });
    let nnz: usize = cols.iter().map(Vec::len).sum();
    println!(
        "    ({FACTOR_N} rows, bump {FACTOR_BUMP}, {nnz} basis nonzeros, {fill} factor nonzeros)"
    );
    group.finish();
}

criterion_group!(benches, bench_factor, bench_reach, bench_solve_density);
criterion_main!(benches);
