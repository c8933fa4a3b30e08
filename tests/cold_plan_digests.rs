//! Pins the cold plan path bit for bit.
//!
//! For every Table 1 law × both §4.2.1 discretization schemes this test
//! fixes, as IEEE-754 bit patterns:
//!
//! * the discretization (`discretize` values then masses, FNV-1a hashed);
//! * the cached tail entry `(P(X ≥ v_n), E[X | X > v_n])` that the DP's
//!   unbounded-tail extension reads;
//! * at the paper's n = 10³, the cold `Planner::plan` digest and its
//!   `expected_cost`.
//!
//! At n = 10⁴ only the grid and tail are pinned (no DP), which keeps the
//! debug-build runtime small. The expected values were generated before
//! the discretization cache dropped its n-wide evaluation table and the
//! Gamma/Beta quantile inversions hoisted their `ln Γ` constants, so any
//! change that moves a single output bit fails here.

use reservation_strategies::core::SolverSpec;
use reservation_strategies::dist::{
    clear_eval_cache, discretize, discretize_eval, last_eval_source, DiscretizationScheme,
    DistSpec, EvalTableSource,
};
use reservation_strategies::Planner;

const EPSILON: f64 = 1e-7;

/// One n = 10³ cell: grid hash, tail bits, plan digest and cost bits.
struct Cold {
    law: &'static str,
    scheme: &'static str,
    grid: u64,
    tail: (u64, u64),
    digest: &'static str,
    expected_cost: u64,
}

/// One n = 10⁴ cell: grid hash and tail bits only.
struct Grid {
    law: &'static str,
    scheme: &'static str,
    grid: u64,
    tail: (u64, u64),
}

#[rustfmt::skip]
const COLD_N1K: &[Cold] = &[
    Cold { law: "Exponential", scheme: "equal_time", grid: 0x7a17e95cd75f34b2, tail: (0x3e7ad7f29a7ffffb, 0x40311e3b8440ed2f), digest: "4bbaebd2721edb11", expected_cost: 0x4002ea858f59d0c9 },
    Cold { law: "Exponential", scheme: "equal_probability", grid: 0x1509bb749fa18e5e, tail: (0x3e7ad7f29afffffb, 0x40311e3b843c287b), digest: "1aedabd2dd34eb0f", expected_cost: 0x4002fc72cbd03021 },
    Cold { law: "Weibull", scheme: "equal_time", grid: 0xc77557a630c7240f, tail: (0x3e7ad7f29a7ffffb, 0x4072607799174f23), digest: "bb5fb0cce0ce445c", expected_cost: 0x4014740c459af34e },
    Cold { law: "Weibull", scheme: "equal_probability", grid: 0x846702c4b268277a, tail: (0x3e7ad7f29afffffb, 0x40726077990d1b14), digest: "479af608f060347d", expected_cost: 0x40150947b020e183 },
    Cold { law: "Gamma", scheme: "equal_time", grid: 0xb79d3082cbb6f5f7, tail: (0x3e7ad7f29a3fffcc, 0x40242b64816bd656), digest: "a08be3c90eb0862c", expected_cost: 0x40012949a9c8fb01 },
    Cold { law: "Gamma", scheme: "equal_probability", grid: 0x0e284c1a803d8f44, tail: (0x3e7ad7f29abfffcb, 0x40242b648166d4f7), digest: "d1c64a3ab3d54999", expected_cost: 0x400131200dea914b },
    Cold { law: "Lognormal", scheme: "equal_time", grid: 0x96d4c71bb87484d2, tail: (0x3e7ad7f29add698a, 0x407290635d36b959), digest: "011c18d96dd77b57", expected_cost: 0x4045cf748ccb0a92 },
    Cold { law: "Lognormal", scheme: "equal_probability", grid: 0x2afa519c474cd646, tail: (0x3e7ad7f29add698a, 0x407290635d36b959), digest: "57dbd7124ae5c854", expected_cost: 0x4045e2de3dcd5af7 },
    Cold { law: "TruncatedNormal", scheme: "equal_time", grid: 0x679ed3c5ff5483f0, tail: (0x3e7ad7f29a56282a, 0x402f3732955c5c7c), digest: "9a520ab7bef32d21", expected_cost: 0x4025e6b936f6646c },
    Cold { law: "TruncatedNormal", scheme: "equal_probability", grid: 0xe6484c688f489703, tail: (0x3e7ad7f29b56285c, 0x402f373295578032), digest: "9f5dc53d39d915f6", expected_cost: 0x4025e83d0589f135 },
    Cold { law: "Pareto", scheme: "equal_time", grid: 0x4c9255928bf5f527, tail: (0x3e7ad7f29a800006, 0x407e4bf702bc09fe), digest: "fca8ca0f9ee4648a", expected_cost: 0x400f464fdaf2f387 },
    Cold { law: "Pareto", scheme: "equal_probability", grid: 0x9bce792c4e42a432, tail: (0x3e7ad7f29b000005, 0x407e4bf7028be238), digest: "575b10d4e0448ddb", expected_cost: 0x4010bb0e5743c641 },
    Cold { law: "Uniform", scheme: "equal_time", grid: 0xc04a811d79c2f289, tail: (0x0000000000000000, 0x4034000000000000), digest: "a81700322783a8b1", expected_cost: 0x4034000000000000 },
    Cold { law: "Uniform", scheme: "equal_probability", grid: 0xc6e823e22467a508, tail: (0x0000000000000000, 0x4034000000000000), digest: "a81700322783a8b1", expected_cost: 0x4034000000000000 },
    Cold { law: "Beta", scheme: "equal_time", grid: 0x374a41192abc3437, tail: (0x0000000000000000, 0x3ff0000000000000), digest: "0ae407ac7ad0132a", expected_cost: 0x3fece2136149b96a },
    Cold { law: "Beta", scheme: "equal_probability", grid: 0xed9d8ed51baa82c1, tail: (0x0000000000000000, 0x3ff0000000000000), digest: "c45c79ff844398be", expected_cost: 0x3fece2302aa67958 },
    Cold { law: "BoundedPareto", scheme: "equal_time", grid: 0x5228d98fc858f861, tail: (0x0000000000000000, 0x4034000000000000), digest: "1728d90c434ae042", expected_cost: 0x400c513e74f361f3 },
    Cold { law: "BoundedPareto", scheme: "equal_probability", grid: 0x4392f907c9623f19, tail: (0x0000000000000000, 0x4034000000000045), digest: "bef0f0a4c1dbe893", expected_cost: 0x400c521b57a63de0 },
];

#[rustfmt::skip]
const GRID_N10K: &[Grid] = &[
    Grid { law: "Exponential", scheme: "equal_time", grid: 0xd73b3abbd81e6f34, tail: (0x3e7ad7f29a7ffffb, 0x40311e3b8440ed2f) },
    Grid { law: "Exponential", scheme: "equal_probability", grid: 0xf7720f899e510f21, tail: (0x3e7ad7f29a7ffffb, 0x40311e3b8440ed2f) },
    Grid { law: "Weibull", scheme: "equal_time", grid: 0xf22215d9c59b5e68, tail: (0x3e7ad7f29a7ffffb, 0x4072607799174f23) },
    Grid { law: "Weibull", scheme: "equal_probability", grid: 0x182576521ce091d3, tail: (0x3e7ad7f29a7ffffb, 0x4072607799174f23) },
    Grid { law: "Gamma", scheme: "equal_time", grid: 0x87436deee7179e46, tail: (0x3e7ad7f29a3fffcc, 0x40242b64816bd656) },
    Grid { law: "Gamma", scheme: "equal_probability", grid: 0x5a58cd650018c7f4, tail: (0x3e7ad7f29a3fffcc, 0x40242b64816bd656) },
    Grid { law: "Lognormal", scheme: "equal_time", grid: 0xa32083d20d03229b, tail: (0x3e7ad7f29add698a, 0x407290635d36b959) },
    Grid { law: "Lognormal", scheme: "equal_probability", grid: 0x1c84cf8da54d742f, tail: (0x3e7ad7f29add698a, 0x407290635d36b959) },
    Grid { law: "TruncatedNormal", scheme: "equal_time", grid: 0x6af9dbe303832286, tail: (0x3e7ad7f29a56284a, 0x402f3732955c5c80) },
    Grid { law: "TruncatedNormal", scheme: "equal_probability", grid: 0x4577378fd409b811, tail: (0x3e7ad7f29a56282a, 0x402f3732955c5c7c) },
    Grid { law: "Pareto", scheme: "equal_time", grid: 0x014c801dff2dd82a, tail: (0x3e7ad7f29a80000a, 0x407e4bf702bc09fd) },
    Grid { law: "Pareto", scheme: "equal_probability", grid: 0xdf300929fc11aca9, tail: (0x3e7ad7f29a800006, 0x407e4bf702bc09fe) },
    Grid { law: "Uniform", scheme: "equal_time", grid: 0x2c24011fc131541c, tail: (0x0000000000000000, 0x4034000000000000) },
    Grid { law: "Uniform", scheme: "equal_probability", grid: 0xb6090e1f44578490, tail: (0x0000000000000000, 0x4034000000000000) },
    Grid { law: "Beta", scheme: "equal_time", grid: 0x9e259a2bf6274f7d, tail: (0x0000000000000000, 0x3ff0000000000000) },
    Grid { law: "Beta", scheme: "equal_probability", grid: 0x35fac43005d3e87c, tail: (0x0000000000000000, 0x3ff0000000000000) },
    Grid { law: "BoundedPareto", scheme: "equal_time", grid: 0x6121351e9592f1cd, tail: (0x0000000000000000, 0x4034000000000000) },
    Grid { law: "BoundedPareto", scheme: "equal_probability", grid: 0x978bde271c743039, tail: (0x0000000000000000, 0x4034000000000045) },
];

fn scheme(tag: &str) -> DiscretizationScheme {
    tag.parse().expect("fixture scheme tags parse")
}

fn law(name: &str) -> DistSpec {
    DistSpec::paper_table1()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is a Table 1 law"))
        .1
}

/// FNV-1a over the little-endian bytes of the values' bit patterns, then
/// the masses' — the `plan_digest` convention, kept as a `u64`.
fn grid_hash(values: &[f64], probs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values.iter().chain(probs) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checks the discretization and cached tail entry of one cell and
/// returns every mismatch found.
fn check_grid(name: &str, tag: &str, n: usize, grid: u64, tail: (u64, u64)) -> Vec<String> {
    let dist = law(name).build().expect("Table 1 specs build");
    let scheme = scheme(tag);
    let eval = discretize_eval(dist.as_ref(), scheme, n, EPSILON).expect("discretize_eval");
    let direct = discretize(dist.as_ref(), scheme, n, EPSILON).expect("discretize");
    let mut errors = Vec::new();
    if eval.discrete != direct {
        errors.push(format!(
            "{name}/{tag}/n={n}: cached law differs from discretize()"
        ));
    }
    let got = grid_hash(direct.values(), direct.probs());
    if got != grid {
        errors.push(format!(
            "{name}/{tag}/n={n}: grid 0x{got:016x}, pinned 0x{grid:016x}"
        ));
    }
    let got = (eval.tail.survival.to_bits(), eval.tail.cond_mean.to_bits());
    if got != tail {
        errors.push(format!(
            "{name}/{tag}/n={n}: tail {got:016x?}, pinned {tail:016x?}"
        ));
    }
    errors
}

#[test]
fn cold_plans_at_n1k_are_bit_identical_to_the_pinned_fixture() {
    assert_eq!(COLD_N1K.len(), 18, "9 laws × 2 schemes");
    let mut errors = Vec::new();
    for cell in COLD_N1K {
        // Cold: the plan must discretize fresh, not read a cached entry.
        clear_eval_cache();
        let plan = Planner::builder()
            .distribution(law(cell.law))
            .solver(SolverSpec::Dp {
                scheme: scheme(cell.scheme),
                n: 1000,
                epsilon: EPSILON,
                monotone: true,
            })
            .build()
            .expect("planner builds")
            .plan()
            .expect("plan succeeds");
        assert_eq!(last_eval_source(), Some(EvalTableSource::Built));
        let (name, tag) = (cell.law, cell.scheme);
        if plan.digest != cell.digest {
            errors.push(format!(
                "{name}/{tag}: digest {}, pinned {}",
                plan.digest, cell.digest
            ));
        }
        let cost = plan.expected_cost.to_bits();
        if cost != cell.expected_cost {
            errors.push(format!(
                "{name}/{tag}: expected_cost 0x{cost:016x}, pinned 0x{:016x}",
                cell.expected_cost
            ));
        }
        errors.extend(check_grid(name, tag, 1000, cell.grid, cell.tail));
    }
    assert!(
        errors.is_empty(),
        "cold plan path moved:\n{}",
        errors.join("\n")
    );
}

#[test]
fn grids_and_tails_at_n10k_are_bit_identical_to_the_pinned_fixture() {
    assert_eq!(GRID_N10K.len(), 18, "9 laws × 2 schemes");
    let mut errors = Vec::new();
    for cell in GRID_N10K {
        errors.extend(check_grid(
            cell.law,
            cell.scheme,
            10_000,
            cell.grid,
            cell.tail,
        ));
    }
    assert!(
        errors.is_empty(),
        "cold grid path moved:\n{}",
        errors.join("\n")
    );
}
