//! The paper as one table: every claim of the evaluation this repository
//! checks, one row each. [`crate::paper`] is the loop that measures them.
//!
//! A [`Claim`] names its paper source (`table5`, `fig3`, …), the cell it
//! is measured in (catalog × workload × objective), what is measured
//! ([`Measure`], which carries the arms it compares) and the band the
//! measured value must fall in. Bands come from the paper's direction —
//! LlamaTune no worse than vanilla, HeSBO no worse than REMBO, a stated
//! tolerance where the paper says "does not hurt" — never from a run.
//!
//! Whether a row is *reproduced* is not written here either: it is read
//! from the committed artifacts, `BENCH_paper.json` (3 × 50) and
//! `BENCH_paper_full.json` (the paper's 5 × 100). A row both record as
//! holding is gated — a run that measures it outside its band fails; any
//! other row is measured and printed all the same, it just cannot fail
//! the gate ([`crate::paper::reproduced`]).

use llamatune::early_stop::EarlyStopPolicy;
use llamatune::pipeline::{LlamaTuneConfig, ProjectionKind};
use llamatune_optim::OptimizerKind;
use llamatune_workloads::PAPER_WORKLOAD_NAMES;

/// The 17 tables and figures of the paper the harness covers, in the
/// paper's order, with the banner each prints under.
pub const SOURCES: [(&str, &str); 17] = [
    ("table1", "Table 1: SHAP top-8 knobs vs hand-picked (YCSB-A)"),
    ("fig2", "Figure 2: tuning a knob subset (SMAC); YCSB-A's top-8 sets transferred to TPC-C"),
    ("fig3", "Figure 3: REMBO/HeSBO projections on YCSB-A (SMAC; no SVB, no bucketization)"),
    ("table2", "Table 2: hybrid knobs and their special values"),
    ("fig4", "Figure 4: special value \"0\" of backend_flush_after on YCSB-B"),
    ("fig6", "Figure 6: special-value biasing sweep (SMAC, full space)"),
    ("table3", "Table 3: discrete knobs with more than K = 10,000 unique values (v9.6)"),
    ("fig7", "Figure 7: bucketized vs original space (SMAC)"),
    ("table4", "Table 4: workload properties"),
    ("table5", "Table 5 + Figures 9, 10: LlamaTune coupled with SMAC, throughput"),
    ("table6", "Table 6: LlamaTune + SMAC, 95th-percentile latency at 60% of default throughput"),
    ("table7", "Table 7: LlamaTune + SMAC on PostgreSQL v13.6 (112 knobs, 23 hybrid)"),
    ("table8", "Table 8: LlamaTune coupled with GP-BO"),
    ("table9", "Table 9: LlamaTune coupled with DDPG (state = 27 internal DBMS metrics)"),
    ("table10", "Table 10: suggest() time, vanilla 90-d vs LlamaTune 16-d (60 observations)"),
    ("fig11", "Figure 11: ablation (SMAC, HeSBO-16, +SVB, +bucketization)"),
    ("table11", "Table 11: early stopping applied post hoc to Table 5's LlamaTune sessions"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Catalog {
    V9_6,
    V13_6,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    Throughput,
    /// p95 latency at 60 % of the default configuration's throughput.
    TailLatency,
}

/// Where a claim is measured.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub catalog: Catalog,
    pub workload: &'static str,
    pub goal: Goal,
}

/// Which knobs an arm tunes (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Subset {
    All,
    /// The top 8 of Table 1's SHAP ranking on YCSB-A.
    ShapTop8,
    HandPicked,
}

/// One side of a comparison. The label is what tables print; an arm's
/// identity is its cell, adapter, subset and optimizer.
#[derive(Debug, Clone)]
pub struct Arm {
    pub label: String,
    /// The adapter's stages: every vanilla and single-stage arm of the
    /// paper is [`LlamaTuneConfig::IDENTITY`] with some switched on.
    pub adapter: LlamaTuneConfig,
    pub subset: Subset,
    pub optimizer: OptimizerKind,
}

/// What a claim measures. The gated value is a percentage unless said
/// otherwise.
#[derive(Debug, Clone)]
pub enum Measure {
    /// Mean over seeds of the candidate's final improvement over a
    /// baseline, paired seed by seed, with its [5 %, 95 %] CI and the
    /// time-to-optimal speedup; against several baselines, the worst.
    Improvement { candidate: Arm, baselines: Vec<Arm> },
    /// Percentage points of `candidate`'s improvement over `baseline`
    /// given up by stopping its sessions under `policy`.
    EarlyStopLoss { policy: EarlyStopPolicy, candidate: Arm, baseline: Arm },
    /// One knob swept around the default configuration: how far the first
    /// value's throughput lies above the best among those of the others
    /// that are at most `rivals_up_to`.
    Sweep { knob: &'static str, values: &'static [i64], rivals_up_to: i64 },
    /// Count: knobs of the cell's catalog that carry a special value.
    HybridKnobs,
    /// Count: discrete knobs with more than 10 000 values.
    LargeRangeKnobs,
    /// Count: columns over the cell's workload's tables.
    Columns,
    /// Count: knobs shared by SHAP's top 8 and the hand-picked 8.
    ShapOverlap,
    /// Count: knobs shared by SHAP's top 8 under two forest seeds.
    ShapStability,
    /// Ratio: median `suggest()` time on the 90-knob space over that on
    /// LlamaTune's 16-d space. Wall clock — the one measure that is not a
    /// function of the seeds.
    SuggestTime(OptimizerKind),
}

impl Measure {
    /// The arms this measure runs, baselines first.
    pub fn arms(&self) -> Vec<&Arm> {
        match self {
            Measure::Improvement { candidate, baselines } => {
                baselines.iter().chain([candidate]).collect()
            }
            Measure::EarlyStopLoss { candidate, baseline, .. } => vec![baseline, candidate],
            _ => Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Claim {
    /// `source/…`, unique.
    pub id: String,
    pub source: &'static str,
    pub cell: Cell,
    pub measure: Measure,
    /// Inclusive bounds on the measured value.
    pub band: (f64, f64),
}

impl Claim {
    /// Whether `value` is inside the band (a NaN never is).
    pub fn holds(&self, value: f64) -> bool {
        self.band.0 <= value && value <= self.band.1
    }
}

fn arm(label: &str, adapter: LlamaTuneConfig, optimizer: OptimizerKind) -> Arm {
    Arm { label: label.to_string(), adapter, subset: Subset::All, optimizer }
}

/// Every stage off: the optimizer searches the knobs themselves.
fn vanilla(label: &str, optimizer: OptimizerKind) -> Arm {
    arm(label, LlamaTuneConfig::IDENTITY, optimizer)
}

/// Projection only: no bucketization, biasing as given (SMAC).
fn projected(label: &str, projection: ProjectionKind, d: usize, bias: Option<f64>) -> Arm {
    let adapter = LlamaTuneConfig {
        target_dim: d,
        projection: Some(projection),
        special_value_bias: bias,
        bucket_count: None,
    };
    arm(label, adapter, OptimizerKind::Smac)
}

fn improvement(candidate: &Arm, baselines: &[&Arm]) -> Measure {
    Measure::Improvement {
        candidate: candidate.clone(),
        baselines: baselines.iter().map(|&b| b.clone()).collect(),
    }
}

/// The rows of [`claims`] from `source`; all of them without one.
pub fn select(source: Option<&str>) -> Vec<Claim> {
    claims().into_iter().filter(|c| source.is_none_or(|s| s == c.source)).collect()
}

/// The table.
pub fn claims() -> Vec<Claim> {
    use OptimizerKind::{Ddpg, GpBo, Smac};
    const AT_LEAST_0: (f64, f64) = (0.0, f64::INFINITY);
    let cell = |catalog, workload, goal| Cell { catalog, workload, goal };
    let tput = |workload| cell(Catalog::V9_6, workload, Goal::Throughput);
    let mut table = Vec::new();
    let mut add = |source: &'static str, name: &str, cell, measure, band| {
        table.push(Claim { id: format!("{source}/{name}"), source, cell, measure, band });
    };

    // §2.3: SHAP finds part of what the expert picks; the expert's eight
    // beat tuning everything on the workload they were picked for, and
    // neither set transfers to TPC-C.
    add("table1", "overlap", tput("ycsb_a"), Measure::ShapOverlap, (1.0, 7.0));
    add("table1", "stable", tput("ycsb_a"), Measure::ShapStability, (6.0, 8.0));
    let all = vanilla("All knobs", Smac);
    let shap = Arm { subset: Subset::ShapTop8, ..vanilla("SHAP top-8", Smac) };
    let hand = Arm { subset: Subset::HandPicked, ..vanilla("Hand-picked top-8", Smac) };
    add("fig2", "ycsb_a/hand_vs_all", tput("ycsb_a"), improvement(&hand, &[&all]), AT_LEAST_0);
    add("fig2", "ycsb_a/hand_vs_shap", tput("ycsb_a"), improvement(&hand, &[&shap]), AT_LEAST_0);
    let transferred = improvement(&all, &[&shap, &hand]);
    add("fig2", "tpcc/all_vs_transferred", tput("tpcc"), transferred, AT_LEAST_0);

    // §3: HeSBO-16 beats the 90-knob space, and HeSBO beats REMBO at every d.
    let high_dim = vanilla("High-Dim", Smac);
    let hesbo = |d| projected(&format!("HeSBO-{d}"), ProjectionKind::Hesbo, d, None);
    let rembo = |d| projected(&format!("REMBO-{d}"), ProjectionKind::Rembo, d, None);
    let low_vs_high = improvement(&hesbo(16), &[&high_dim]);
    add("fig3", "hesbo16_vs_high_dim", tput("ycsb_a"), low_vs_high, AT_LEAST_0);
    for d in [8, 16, 24] {
        let name = format!("hesbo{d}_vs_rembo{d}");
        add("fig3", &name, tput("ycsb_a"), improvement(&hesbo(d), &[&rembo(d)]), AT_LEAST_0);
    }

    // §4.1: 17 (v9.6) and 23 (v13.6) hybrid knobs; the special value of
    // `backend_flush_after` beats every small regular value; biasing 20 %
    // of samples helps, and 20 % sits in the flat part of the sweep
    // (within 5 % of the best of 5 / 10 / 30 %).
    add("table2", "v9.6", tput("ycsb_a"), Measure::HybridKnobs, (17.0, 17.0));
    let v13 = cell(Catalog::V13_6, "ycsb_a", Goal::Throughput);
    add("table2", "v13.6", v13, Measure::HybridKnobs, (23.0, 23.0));
    let sweep = Measure::Sweep {
        knob: "backend_flush_after",
        values: &[0, 1, 2, 5, 10, 20, 40, 80, 120, 160, 200, 256],
        rivals_up_to: 20,
    };
    add("fig4", "backend_flush_after", tput("ycsb_b"), sweep, AT_LEAST_0);
    for workload in ["ycsb_a", "ycsb_b"] {
        let none = vanilla("No SVB", Smac);
        let svb = |pct: u32| {
            let bias = Some(pct as f64 / 100.0);
            let adapter = LlamaTuneConfig { special_value_bias: bias, ..LlamaTuneConfig::IDENTITY };
            arm(&format!("SVB={pct}%"), adapter, Smac)
        };
        let others = [svb(5), svb(10), svb(30)];
        let name = format!("{workload}/bias20_vs_none");
        add("fig6", &name, tput(workload), improvement(&svb(20), &[&none]), AT_LEAST_0);
        let flat = improvement(&svb(20), &others.iter().collect::<Vec<_>>());
        add("fig6", &format!("{workload}/flat"), tput(workload), flat, (-5.0, f64::INFINITY));
    }

    // §4.2: a third of the knobs have huge ranges; K = 10 000 stays within
    // 5 % of the unbucketized space and of the other K.
    add("table3", "large_range", tput("ycsb_a"), Measure::LargeRangeKnobs, (20.0, 40.0));
    for workload in ["ycsb_a", "ycsb_b"] {
        let none = vanilla("No bucketization", Smac);
        let k = |k: u64| {
            let adapter = LlamaTuneConfig { bucket_count: Some(k), ..LlamaTuneConfig::IDENTITY };
            arm(&format!("K={k}"), adapter, Smac)
        };
        let others = [k(1_000), k(5_000), k(20_000)];
        let within_5 = (-5.0, f64::INFINITY);
        let name = format!("{workload}/k10000_vs_none");
        add("fig7", &name, tput(workload), improvement(&k(10_000), &[&none]), within_5);
        let flat = improvement(&k(10_000), &others.iter().collect::<Vec<_>>());
        add("fig7", &format!("{workload}/flat"), tput(workload), flat, within_5);
    }

    // §6: Table 4's schemas, then LlamaTune no worse than the vanilla
    // optimizer in every cell of Tables 5–9.
    for (workload, columns) in
        PAPER_WORKLOAD_NAMES.into_iter().zip([11.0, 11.0, 92.0, 189.0, 18.0, 23.0])
    {
        add("table4", workload, tput(workload), Measure::Columns, (columns, columns));
    }
    let all_six = &PAPER_WORKLOAD_NAMES[..];
    let for_ddpg = &["ycsb_b", "tpcc", "twitter", "resource_stresser"][..];
    for (source, catalog, goal, optimizer, workloads) in [
        ("table5", Catalog::V9_6, Goal::Throughput, Smac, all_six),
        ("table6", Catalog::V9_6, Goal::TailLatency, Smac, &["tpcc", "seats", "twitter"][..]),
        ("table7", Catalog::V13_6, Goal::Throughput, Smac, all_six),
        ("table8", Catalog::V9_6, Goal::Throughput, GpBo, all_six),
        ("table9", Catalog::V9_6, Goal::Throughput, Ddpg, for_ddpg),
    ] {
        let base = vanilla(optimizer.label(), optimizer);
        let llama = arm("LlamaTune", LlamaTuneConfig::default(), optimizer);
        for workload in workloads {
            let cell = cell(catalog, workload, goal);
            add(source, workload, cell, improvement(&llama, &[&base]), AT_LEAST_0);
        }
    }

    // Table 10: the 16-d space is no dearer to search than the 90-d one
    // (DDPG's actor barely notices the width: 0.8 allows for the clock).
    for optimizer in [Smac, GpBo, Ddpg] {
        let at_least = if optimizer == Ddpg { 0.8 } else { 1.0 };
        let measure = Measure::SuggestTime(optimizer);
        add("table10", optimizer.label(), tput("ycsb_a"), measure, (at_least, f64::INFINITY));
    }

    // Figure 11: each component adds to the one before, give or take 2 %.
    for workload in ["ycsb_a", "ycsb_b", "tpcc"] {
        let chain = [
            ("smac", vanilla("SMAC", Smac)),
            ("low_dim", projected("Low-Dim", ProjectionKind::Hesbo, 16, None)),
            ("svb", projected("Low-Dim+SVB", ProjectionKind::Hesbo, 16, Some(0.2))),
            ("llamatune", arm("LlamaTune", LlamaTuneConfig::default(), Smac)),
        ];
        for step in chain.windows(2) {
            let name = format!("{workload}/{}_vs_{}", step[1].0, step[0].0);
            let measure = improvement(&step[1].1, &[&step[0].1]);
            add("fig11", &name, tput(workload), measure, (-2.0, f64::INFINITY));
        }
    }

    // Appendix A: stopping early gives up at most 5 points of improvement.
    for workload in PAPER_WORKLOAD_NAMES {
        for (name, policy) in [
            ("0.5%x10", EarlyStopPolicy::HALF_PCT_10),
            ("1%x10", EarlyStopPolicy::ONE_PCT_10),
            ("1%x20", EarlyStopPolicy::ONE_PCT_20),
        ] {
            let measure = Measure::EarlyStopLoss {
                policy,
                candidate: arm("LlamaTune", LlamaTuneConfig::default(), Smac),
                baseline: vanilla("SMAC", Smac),
            };
            add("table11", &format!("{workload}/{name}"), tput(workload), measure, (0.0, 5.0));
        }
    }
    table
}
