//! Property-based round-trip tests for the spec language and wire format.

use proptest::prelude::*;
use sekitei_model::{Expr, Interval, LevelScenario, MediaConfig, SExpr, SpecVar};
use sekitei_spec::{
    decode, decode_outcome, encode, encode_outcome, parse_expr, parse_problem, print_problem,
    WireOutcome, WirePlan, WireStats, WireStep, WireStepKind,
};
use sekitei_topology::scenarios;
use sekitei_util::SplitMix64;

/// Random spec-level expressions over a small vocabulary.
fn arb_sexpr() -> impl Strategy<Value = SExpr> {
    let leaf = prop_oneof![
        (0.0..1000.0f64).prop_map(|c| Expr::c((c * 100.0).round() / 100.0)),
        Just(Expr::var(SpecVar::iface("M", "ibw"))),
        Just(Expr::var(SpecVar::iface("T", "ibw"))),
        Just(Expr::var(SpecVar::node("cpu"))),
        Just(Expr::var(SpecVar::link("lbw"))),
    ];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min_e(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max_e(b)),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_print_parse_roundtrip(e in arb_sexpr()) {
        let text = sekitei_spec::printer::expr(&e);
        let parsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("reparse of `{text}` failed: {err}"));
        prop_assert_eq!(&parsed, &e, "{}", text);
    }

    #[test]
    fn expr_roundtrip_preserves_value(e in arb_sexpr(),
                                       m in 0.0..200.0f64, t in 0.0..140.0f64,
                                       c in 0.0..40.0f64, l in 0.0..150.0f64) {
        let text = sekitei_spec::printer::expr(&e);
        let parsed = parse_expr(&text).unwrap();
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { iface, .. } if iface == "M" => m,
            SpecVar::Iface { .. } => t,
            SpecVar::Node { .. } => c,
            SpecVar::Link { .. } => l,
        };
        let a = e.eval(&mut env);
        let b = parsed.eval(&mut env);
        prop_assert!(a == b || (a.is_nan() && b.is_nan()), "{a} vs {b} for `{text}`");
    }

    #[test]
    fn media_problem_roundtrips_under_config(demand in 50.0..120.0f64,
                                             split in 0.3..0.9f64,
                                             ratio in 0.2..0.9f64) {
        let cfg = MediaConfig {
            client_demand: (demand * 10.0).round() / 10.0,
            split_t: (split * 100.0).round() / 100.0,
            zip_ratio: (ratio * 100.0).round() / 100.0,
            ..MediaConfig::default()
        };
        for sc in [LevelScenario::A, LevelScenario::C, LevelScenario::E] {
            let p = scenarios::tiny_with(cfg, sc);
            // text round-trip
            let q = parse_problem(&print_problem(&p)).unwrap();
            prop_assert_eq!(&p.components, &q.components);
            prop_assert_eq!(&p.interfaces, &q.interfaces);
            prop_assert_eq!(&p.resources, &q.resources);
            // wire round-trip
            let r = decode(&encode(&p)).unwrap();
            prop_assert_eq!(&p.components, &r.components);
            prop_assert_eq!(&p.sources, &r.sources);
        }
    }

    #[test]
    fn wire_never_panics_on_mutation(seed in 0usize..64, flip in any::<u8>()) {
        let p = scenarios::tiny(LevelScenario::D);
        let mut bytes = encode(&p).to_vec();
        let idx = 4 + (seed * 131) % (bytes.len() - 4);
        bytes[idx] ^= flip | 1;
        let _ = decode(&bytes); // must not panic
    }

    #[test]
    fn source_intervals_roundtrip(lo in 0.0..50.0f64, hi in 50.0..300.0f64) {
        let mut p = scenarios::tiny(LevelScenario::C);
        let lo = (lo * 10.0).round() / 10.0;
        let hi = (hi * 10.0).round() / 10.0;
        p.sources[0].properties.insert("ibw".into(), Interval::new(lo, hi));
        let q = parse_problem(&print_problem(&p)).unwrap();
        prop_assert_eq!(&p.sources, &q.sources);
        let r = decode(&encode(&p)).unwrap();
        prop_assert_eq!(&p.sources, &r.sources);
    }
}

/// A draw in `[0, hi)` on a grid of 10⁶ steps.
fn frac(r: &mut SplitMix64, hi: f64) -> f64 {
    (r.next_u64() % 1_000_000) as f64 * hi / 1e6
}

/// Deterministic pseudo-random outcome from a seed — enough variety to
/// exercise every branch of the outcome codec.
fn outcome_from_seed(seed: u64, with_plan: bool, nsteps: usize) -> WireOutcome {
    let mut r = SplitMix64::new(seed);
    let kinds = [WireStepKind::Place, WireStepKind::Cross, WireStepKind::Other];
    let plan = with_plan.then(|| WirePlan {
        steps: (0..nsteps)
            .map(|i| WireStep {
                name: format!("step-{i}-{}", r.next_u64() % 997),
                kind: kinds[(r.next_u64() % 3) as usize],
                cost_lb: frac(&mut r, 10.0),
            })
            .collect(),
        cost_lower_bound: frac(&mut r, 100.0),
        degraded: r.next_u64().is_multiple_of(2),
        source_values: (0..r.next_u64() % 4)
            .map(|_| ((r.next_u64() % 4096) as u32, frac(&mut r, 200.0)))
            .collect(),
    });
    let best_bound = (r.next_u64().is_multiple_of(2)).then(|| frac(&mut r, 50.0));
    let optimality_gap = (r.next_u64().is_multiple_of(2)).then(|| frac(&mut r, 25.0));
    let certificate = (r.next_u64().is_multiple_of(2))
        .then(|| (0..r.next_u64() % 64).map(|_| (r.next_u64() & 0xff) as u8).collect::<Vec<u8>>());
    WireOutcome {
        plan,
        best_bound,
        optimality_gap,
        certificate,
        stats: WireStats {
            total_actions: r.next_u64() % 100_000,
            plrg_props: r.next_u64() % 100_000,
            plrg_actions: r.next_u64() % 100_000,
            slrg_nodes: r.next_u64() % 100_000,
            rg_nodes: r.next_u64() % 100_000,
            rg_open_left: r.next_u64() % 100_000,
            replay_prunes: r.next_u64() % 100_000,
            candidate_rejects: r.next_u64() % 100_000,
            total_time_us: r.next_u64() % 10_000_000,
            search_time_us: r.next_u64() % 10_000_000,
            budget_exhausted: r.next_u64().is_multiple_of(2),
            deadline_hit: r.next_u64().is_multiple_of(2),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode→decode→encode is the identity on outcome bytes.
    #[test]
    fn outcome_wire_roundtrip_identity(seed in any::<u64>(),
                                       with_plan in proptest::bool::ANY,
                                       nsteps in 0usize..24) {
        let o = outcome_from_seed(seed, with_plan, nsteps);
        let bytes = encode_outcome(&o);
        let q = decode_outcome(&bytes).unwrap();
        prop_assert_eq!(&o, &q);
        prop_assert_eq!(&bytes, &encode_outcome(&q));
    }

    /// encode→decode→encode is the identity on problem bytes.
    #[test]
    fn problem_wire_roundtrip_identity(demand in 50.0..120.0f64) {
        let cfg = MediaConfig {
            client_demand: (demand * 10.0).round() / 10.0,
            ..MediaConfig::default()
        };
        for sc in LevelScenario::ALL {
            let p = scenarios::tiny_with(cfg, sc);
            let bytes = encode(&p);
            let q = decode(&bytes).unwrap();
            prop_assert_eq!(&bytes, &encode(&q), "{sc:?}");
        }
    }

    /// The outcome decoder must never panic on corrupted bytes.
    #[test]
    fn outcome_never_panics_on_mutation(seed in any::<u64>(),
                                        idx in 0usize..512,
                                        flip in any::<u8>()) {
        let o = outcome_from_seed(seed, true, 8);
        let mut bytes = encode_outcome(&o).to_vec();
        let i = idx % bytes.len();
        bytes[i] ^= flip | 1;
        let _ = decode_outcome(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser must never panic, whatever bytes arrive.
    #[test]
    fn parser_never_panics_on_garbage(src in "\\PC{0,200}") {
        let _ = parse_problem(&src);
        let _ = parse_expr(&src);
    }

    /// Nor on "almost valid" input: a real spec with a random slice
    /// deleted or duplicated.
    #[test]
    fn parser_never_panics_on_mutations(cut_start in 0usize..1500,
                                        cut_len in 0usize..300,
                                        duplicate in proptest::bool::ANY) {
        let base = print_problem(&scenarios::tiny(LevelScenario::D));
        let bytes = base.as_bytes();
        let start = cut_start.min(bytes.len());
        let end = (start + cut_len).min(bytes.len());
        // splice on char boundaries only
        let (mut s, mut e) = (start, end);
        while s > 0 && !base.is_char_boundary(s) { s -= 1; }
        while e < base.len() && !base.is_char_boundary(e) { e += 1; }
        let mutated = if duplicate {
            format!("{}{}{}", &base[..e], &base[s..e], &base[e..])
        } else {
            format!("{}{}", &base[..s], &base[e..])
        };
        let _ = parse_problem(&mutated);
    }
}
