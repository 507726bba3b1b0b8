//! The loop over [`crate::claims`]: run every distinct arm once, measure
//! each claim, print its source's table, and say which claims hold. The
//! gate is read from the committed artifacts ([`recorded`],
//! [`reproduced`]): a claim is reproduced when both scales record it as
//! holding, and only a reproduced claim outside its band fails a run.
//!
//! `benches/paper.rs` is the entry point; the loop lives here so that the
//! crate's tests can drive it at toy scale.

use crate::artifact::{median, round, Artifact, Field};
use crate::claims::{Arm, Catalog, Cell, Claim, Goal, Measure, Subset};
use crate::exp::{paired_rows, run_tuning_arm, ArmResult, ExpScale, PairedRow};
use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::report::{convergence_map, final_improvement_pct};
use llamatune_analysis::{rank_knobs, shap_importance};
use llamatune_math::{latin_hypercube, mean, Summary};
use llamatune_obs::fmt;
use llamatune_obs::json::JsonValue;
use llamatune_optim::{Observation, OptimizerKind, RandomForest, SearchSpec};
use llamatune_space::catalog::{postgres_v13_6, postgres_v9_6, HAND_PICKED_TOP8_YCSB_A};
use llamatune_space::{ConfigSpace, Domain, KnobValue};
use llamatune_workloads::{workload_by_name, Objective, WorkloadRunner};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

impl Catalog {
    pub fn space(self) -> ConfigSpace {
        match self {
            Catalog::V9_6 => postgres_v9_6(),
            Catalog::V13_6 => postgres_v13_6(),
        }
    }
}

/// Knob names with their mean |SHAP|, most important first.
type Ranking = Vec<(&'static str, f64)>;

/// Everything a run computes once: each distinct arm's sessions, and the
/// SHAP ranking Table 1 prints and Figure 2's subset arm tunes.
pub struct Memo {
    scale: ExpScale,
    arms: HashMap<String, Rc<ArmResult>>,
    shap: Option<Rc<[Ranking; 2]>>,
    /// Calls made to [`run_tuning_arm`].
    pub arm_runs: usize,
}

impl Memo {
    pub fn new(scale: ExpScale) -> Self {
        Memo { scale, arms: HashMap::new(), shap: None, arm_runs: 0 }
    }

    /// `arm`'s sessions in `cell`, run on first request.
    pub fn arm(&mut self, cell: &Cell, arm: &Arm) -> Rc<ArmResult> {
        let key = arm_key(cell, arm);
        if let Some(done) = self.arms.get(&key) {
            return done.clone();
        }
        let catalog = cell.catalog.space();
        let mut runner = WorkloadRunner::new(workload(cell), catalog.clone());
        if cell.goal == Goal::TailLatency {
            let default_tput =
                runner.evaluate(&catalog, &catalog.default_config(), 0).score.unwrap_or(1_000.0);
            runner =
                runner.with_objective(Objective::TailLatency95 { rate_tps: default_tput * 0.6 });
        }
        let tuned = match arm.subset {
            Subset::All => catalog.clone(),
            Subset::HandPicked => catalog.subspace(&HAND_PICKED_TOP8_YCSB_A),
            Subset::ShapTop8 => {
                let top8: Vec<&str> =
                    self.shap_rankings()[0][..8].iter().map(|(n, _)| *n).collect();
                catalog.subspace(&top8)
            }
        };
        let adapter_for = |seed| -> Box<dyn SearchSpaceAdapter> {
            Box::new(LlamaTunePipeline::new(&tuned, &arm.adapter, seed))
        };
        let result = run_tuning_arm(&runner, &tuned, adapter_for, arm.optimizer, self.scale);
        self.arm_runs += 1;
        self.arms.entry(key).or_insert(Rc::new(result)).clone()
    }

    /// Knobs of v9.6 ranked by mean |SHAP| on YCSB-A (§2.3: LHS-evaluate
    /// configurations — 2 500 in the paper —, fit a random forest, run
    /// path-dependent TreeSHAP). Twice over the same sample: Table 1's
    /// ranking, then that of a forest seeded differently.
    fn shap_rankings(&mut self) -> Rc<[Ranking; 2]> {
        if let Some(done) = &self.shap {
            return done.clone();
        }
        let n = if self.scale.quick { 300 } else { 2_500 };
        let catalog = postgres_v9_6();
        let runner = WorkloadRunner::new(workload_by_name("ycsb_a").unwrap(), catalog.clone());
        let identity = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::IDENTITY, 0);
        let spec = identity.optimizer_spec().clone();
        let xs = latin_hypercube(n, catalog.len(), &mut StdRng::seed_from_u64(1));
        let mut worst = f64::INFINITY;
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                match runner.evaluate(&catalog, &catalog.config_from_unit(x), i as u64).score {
                    Some(tput) => {
                        worst = worst.min(tput);
                        tput
                    }
                    None => worst.min(1_000.0) / 4.0, // crash penalty
                }
            })
            .collect();
        let names: Vec<&'static str> = catalog.knobs().iter().map(|k| k.name).collect();
        let rankings = [7, 8].map(|forest_seed| {
            let forest = RandomForest::fit(&spec, &xs, &ys, forest_seed);
            rank_knobs(&names, &shap_importance(&forest, &xs[..n.min(400)]))
        });
        self.shap.insert(Rc::new(rankings)).clone()
    }
}

/// What makes two arms the same run: everything but the label.
pub fn arm_key(cell: &Cell, arm: &Arm) -> String {
    format!("{cell:?} {:?} {:?} {:?}", arm.adapter, arm.subset, arm.optimizer)
}

fn workload(cell: &Cell) -> llamatune_engine::WorkloadSpec {
    workload_by_name(cell.workload).expect("a workload of the registry")
}

/// A measured claim: the gated value, its [5 %, 95 %] CI where seeds give
/// one, and the rows it adds to its source's printed table. An
/// improvement claim also carries its time-to-optimal against the
/// baseline it is gated on: the speedup (mean and CI) and the iteration
/// at which the candidate's mean curve catches up, if it does.
#[derive(Default)]
pub struct Outcome {
    pub value: f64,
    pub ci: Option<(f64, f64)>,
    pub speedup: Option<Summary>,
    pub catch_up_iter: Option<usize>,
    pub rows: Vec<Vec<String>>,
}

/// Column titles of the rows [`evaluate`] returns for `measure`.
fn headers(measure: &Measure) -> &'static [&'static str] {
    match measure {
        Measure::Improvement { .. } => {
            &["claim", "vs", "FinalImp", "[5%,95%] CI", "Speedup", "(catch-up)", "[5%,95%] CI"]
        }
        Measure::EarlyStopLoss { .. } => {
            &["claim", "imp. at stop", "iters", "imp. in full", "lost"]
        }
        Measure::Sweep { .. } => &["value", "tput (tps)"],
        Measure::HybridKnobs => &["knob", "range", "special", "action"],
        Measure::LargeRangeKnobs => &["knob", "unique values", "unit", "description"],
        Measure::Columns => &["workload", "# tables", "# columns", "RO txns", "DB size"],
        Measure::ShapOverlap | Measure::ShapStability => {
            &["rank", "SHAP", "mean |SHAP| (tps)", "forest re-seeded", "hand-picked (a-z)"]
        }
        Measure::SuggestTime(_) => &["optimizer", "90-d (us)", "16-d (us)", "ratio"],
    }
}

/// One paired-comparison row in the style of Tables 5-9, as table cells:
/// the row's name, the baseline it is against, final improvement and its
/// CI, time-to-optimal speedup, catch-up iteration and the speedup's CI.
fn paired_cells(row: &PairedRow, baseline: &str) -> Vec<String> {
    let catch = match row.catch_up_iter {
        Some(i) => format!("[{i} iter]"),
        None => "[not reached]".to_string(),
    };
    vec![
        row.workload.clone(),
        baseline.to_string(),
        format!("{:.2}%", row.improvement.mean),
        format!("[{:.1}%, {:.1}%]", row.improvement.ci_lo, row.improvement.ci_hi),
        format!("{:.2}x", row.speedup.mean),
        catch,
        format!("[{:.1}x, {:.1}x]", row.speedup.ci_lo, row.speedup.ci_hi),
    ]
}

/// Measures one claim, running whichever of its arms `memo` has not seen.
pub fn evaluate(claim: &Claim, memo: &mut Memo) -> Outcome {
    let cell = &claim.cell;
    let count = |value: usize, rows| Outcome { value: value as f64, rows, ..Outcome::default() };
    match &claim.measure {
        Measure::Improvement { candidate, baselines } => {
            let cand = memo.arm(cell, candidate);
            let (base, row) = baselines
                .iter()
                .map(|b| (b, paired_rows(&claim.id, &memo.arm(cell, b), &cand)))
                .min_by(|a, b| a.1.improvement.mean.total_cmp(&b.1.improvement.mean))
                .expect("a baseline to compare against");
            let Summary { mean, ci_lo, ci_hi } = row.improvement;
            Outcome {
                value: mean,
                ci: Some((ci_lo, ci_hi)),
                speedup: Some(row.speedup),
                catch_up_iter: row.catch_up_iter,
                rows: vec![paired_cells(&row, &base.label)],
            }
        }
        Measure::EarlyStopLoss { policy, candidate, baseline } => {
            let base_final = memo.arm(cell, baseline).mean_final_best();
            let (mut at_stop, mut in_full, mut iters) = (Vec::new(), Vec::new(), Vec::new());
            for h in &memo.arm(cell, candidate).histories {
                let curve = &h.best_curve[1..];
                let stop = policy.stop_index(curve).unwrap_or(curve.len());
                at_stop.push(final_improvement_pct(base_final, curve[stop - 1]));
                in_full.push(final_improvement_pct(base_final, curve[curve.len() - 1]));
                iters.push(stop as f64);
            }
            let lost: Vec<f64> = in_full.iter().zip(&at_stop).map(|(f, s)| f - s).collect();
            let Summary { mean: value, ci_lo, ci_hi } = Summary::from_samples(&lost);
            let cells = vec![
                claim.id.clone(),
                format!("{:.2}%", mean(&at_stop)),
                format!("{:.0}", mean(&iters)),
                format!("{:.2}%", mean(&in_full)),
                format!("{value:.2}"),
            ];
            Outcome { value, ci: Some((ci_lo, ci_hi)), rows: vec![cells], ..Outcome::default() }
        }
        Measure::Sweep { knob, values, rivals_up_to } => {
            let catalog = cell.catalog.space();
            let runner = WorkloadRunner::new(workload(cell), catalog.clone());
            let idx = catalog.index_of(knob).expect("a knob of the catalog");
            let tputs: Vec<f64> = values
                .iter()
                .map(|&v| {
                    let mut cfg = catalog.default_config();
                    cfg.values_mut()[idx] = KnobValue::Int(v);
                    let score = |seed| runner.evaluate(&catalog, &cfg, seed).score.unwrap_or(0.0);
                    mean(&[score(0), score(1), score(2)])
                })
                .collect();
            let rival = (1..values.len())
                .filter(|&i| values[i] <= *rivals_up_to)
                .map(|i| tputs[i])
                .fold(f64::NEG_INFINITY, f64::max);
            let rows =
                values.iter().zip(&tputs).map(|(v, t)| vec![v.to_string(), format!("{t:.0}")]);
            Outcome {
                value: final_improvement_pct(rival, tputs[0]),
                rows: rows.collect(),
                ..Outcome::default()
            }
        }
        Measure::HybridKnobs => {
            let space = cell.catalog.space();
            let rows: Vec<_> = space
                .hybrid_knobs()
                .map(|(_, k)| {
                    let special = k.special.expect("hybrid knobs have one");
                    let range = match &k.domain {
                        Domain::Integer { min, max } => format!("[{min}, {max}]"),
                        other => format!("{other:?}"),
                    };
                    vec![k.name.into(), range, special.value.to_string(), special.meaning.into()]
                })
                .collect();
            count(rows.len(), rows)
        }
        Measure::LargeRangeKnobs => {
            let space = cell.catalog.space();
            let mut large: Vec<_> = space
                .knobs()
                .iter()
                .filter_map(|k| k.domain.cardinality().filter(|c| *c > 10_000).map(|c| (k, c)))
                .collect();
            large.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
            let rows = large.iter().map(|(k, c)| {
                vec![k.name.into(), c.to_string(), format!("{:?}", k.unit), k.description.into()]
            });
            count(large.len(), rows.collect())
        }
        Measure::Columns => {
            let spec = workload(cell);
            let columns: u32 = spec.tables.iter().map(|t| t.columns).sum();
            let cells = vec![
                spec.name.to_string(),
                spec.tables.len().to_string(),
                columns.to_string(),
                format!("{:.0}%", spec.read_only_fraction() * 100.0),
                format!("{:.1}GB", spec.total_bytes() as f64 / (1u64 << 30) as f64),
            ];
            count(columns as usize, vec![cells])
        }
        Measure::ShapStability => {
            let [ranked, reseeded] = &*memo.shap_rankings();
            let stable = ranked[..8].iter().filter(|a| reseeded[..8].iter().any(|b| a.0 == b.0));
            count(stable.count(), Vec::new())
        }
        Measure::ShapOverlap => {
            let [ranked, reseeded] = &*memo.shap_rankings();
            let mut hand = HAND_PICKED_TOP8_YCSB_A.to_vec();
            hand.sort_unstable();
            let rows = (0..8).map(|i| {
                let (name, importance) = ranked[i];
                let rank = (i + 1).to_string();
                vec![
                    rank,
                    name.into(),
                    format!("{importance:.1}"),
                    reseeded[i].0.into(),
                    hand[i].into(),
                ]
            });
            count(ranked[..8].iter().filter(|(n, _)| hand.contains(n)).count(), rows.collect())
        }
        Measure::SuggestTime(kind) => {
            let catalog = cell.catalog.space();
            let [wide, narrow] = [LlamaTuneConfig::IDENTITY, LlamaTuneConfig::default()].map(|c| {
                let adapter = LlamaTunePipeline::new(&catalog, &c, 1);
                suggest_us(*kind, adapter.optimizer_spec(), memo.scale)
            });
            let ratio = wide / narrow;
            let cells = vec![
                kind.label().to_string(),
                format!("{wide:.0}"),
                format!("{narrow:.0}"),
                format!("{ratio:.2}"),
            ];
            Outcome { value: ratio, rows: vec![cells], ..Outcome::default() }
        }
    }
}

/// Median wall time of a mid-session `suggest()`: the optimizer holds 60
/// synthetic observations (27 metrics each, as DDPG's state wants) and
/// takes in one more, untimed, before every timed call.
fn suggest_us(kind: OptimizerKind, spec: &SearchSpec, scale: ExpScale) -> f64 {
    let mut opt = kind.build(spec, 7);
    let mut rng = StdRng::seed_from_u64(1);
    let mut observation = |y: f64| {
        let x = (0..spec.len()).map(|_| rng.random::<f64>()).collect();
        Observation { x, y, metrics: (0..27).map(|_| rng.random::<f64>()).collect() }
    };
    for i in 0..60 {
        opt.observe(observation(i as f64));
    }
    let times = (0..if scale.quick { 5 } else { 11 }).map(|i| {
        opt.observe(observation(i as f64));
        let t = Instant::now();
        std::hint::black_box(opt.suggest());
        t.elapsed().as_secs_f64() * 1e6
    });
    median(times.collect())
}

/// What a committed paper artifact recorded of one claim.
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    /// The measured value; NaN where the artifact wrote `null`.
    pub value: f64,
    pub holds: bool,
}

/// A committed paper artifact's rows, by claim id.
pub type Verdicts = HashMap<String, Recorded>;

/// The rows of a paper artifact ([`Report::artifact`]'s shape) by claim id.
pub fn recorded(artifact: &JsonValue) -> Result<Verdicts, String> {
    let rows = artifact.get("claims").and_then(JsonValue::as_array).ok_or("no claims array")?;
    rows.iter()
        .map(|row| {
            let id = row.get("id").and_then(JsonValue::as_str).ok_or("a claim without an id")?;
            let holds = row.get("holds").and_then(JsonValue::as_bool);
            let holds = holds.ok_or_else(|| format!("{id}: no holds"))?;
            let value = row.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            Ok((id.to_string(), Recorded { value, holds }))
        })
        .collect()
}

/// Ids of the claims both scales record as holding: the gated rows. A
/// claim absent from either artifact is not among them.
pub fn reproduced(quick: &Verdicts, full: &Verdicts) -> HashSet<String> {
    let both = quick.iter().filter(|(id, q)| q.holds && full.get(*id).is_some_and(|f| f.holds));
    both.map(|(id, _)| id.clone()).collect()
}

/// What a run measured, claim by claim.
pub struct Report {
    pub rows: Vec<(Claim, Outcome)>,
    pub arm_runs: usize,
}

impl Report {
    /// Ids of the `reproduced` claims measured outside their band: the run
    /// fails unless this is empty.
    pub fn failures(&self, reproduced: &HashSet<String>) -> Vec<&str> {
        let gated =
            self.rows.iter().filter(|(c, o)| reproduced.contains(&c.id) && !c.holds(o.value));
        gated.map(|(c, _)| c.id.as_str()).collect()
    }

    /// Claims whose verdict differs from the one `committed` records (or
    /// that it does not record), with whether they hold now.
    pub fn flips(&self, committed: &Verdicts) -> Vec<(&str, bool)> {
        let now = self.rows.iter().map(|(c, o)| (c.id.as_str(), c.holds(o.value)));
        now.filter(|(id, holds)| committed.get(*id).map(|r| r.holds) != Some(*holds)).collect()
    }

    /// The `BENCH_paper.json` artifact: one row per claim.
    pub fn artifact(&self, scale: ExpScale) -> Artifact<'_> {
        let mut artifact = Artifact::new(vec![
            ("quick", Field::Flag(scale.quick)),
            ("seeds", Field::Num(scale.seeds as f64)),
            ("iterations", Field::Num(scale.iterations as f64)),
            ("arm_runs", Field::Num(self.arm_runs as f64)),
        ]);
        let rows = self.rows.iter().map(|(claim, outcome)| {
            // Absent figures are NaN, which the artifact writes as `null`.
            let (ci_lo, ci_hi) = outcome.ci.unwrap_or((f64::NAN, f64::NAN));
            let nan = Summary { mean: f64::NAN, ci_lo: f64::NAN, ci_hi: f64::NAN };
            let speedup = outcome.speedup.unwrap_or(nan);
            let catch_up_iter = outcome.catch_up_iter.map_or(f64::NAN, |i| i as f64);
            vec![
                ("id", Field::Text(&claim.id)),
                ("source", Field::Text(claim.source)),
                ("value", Field::Num(round(outcome.value, 4))),
                ("ci_lo", Field::Num(round(ci_lo, 4))),
                ("ci_hi", Field::Num(round(ci_hi, 4))),
                ("speedup", Field::Num(round(speedup.mean, 4))),
                ("speedup_ci_lo", Field::Num(round(speedup.ci_lo, 4))),
                ("speedup_ci_hi", Field::Num(round(speedup.ci_hi, 4))),
                ("catch_up_iter", Field::Num(catch_up_iter)),
                ("band_lo", Field::Num(claim.band.0)),
                ("band_hi", Field::Num(claim.band.1)),
                ("holds", Field::Flag(claim.holds(outcome.value))),
            ]
        });
        artifact.push("claims", rows.collect());
        artifact
    }
}

/// Measures `table` source by source, printing each source's own table,
/// the mean best-so-far curves of its arms where the paper draws them,
/// and the verdict on each of its claims beside the values `committed`
/// records at 3 × 50 and at 5 × 100. A miss fails only a claim of
/// `reproduced`.
pub fn run(
    table: &[Claim],
    scale: ExpScale,
    committed: [&Verdicts; 2],
    reproduced: &HashSet<String>,
) -> Report {
    let mut memo = Memo::new(scale);
    let mut rows = Vec::new();
    let detail = format!("{} seeds x {} iterations", scale.seeds, scale.iterations);
    for (source, title) in crate::claims::SOURCES {
        let claims: Vec<&Claim> = table.iter().filter(|c| c.source == source).collect();
        let Some(first) = claims.first() else { continue };
        print!("{}", fmt::header(title, &detail));
        let outcomes: Vec<Outcome> = claims.iter().map(|c| evaluate(c, &mut memo)).collect();
        let cells: Vec<_> = outcomes.iter().flat_map(|o| o.rows.clone()).collect();
        print!("{}", fmt::table(headers(&first.measure), &cells));
        // The paper draws its figures as curves; Table 5 comes with two.
        if source.starts_with("fig") || source == "table5" {
            print_curves(&claims, &mut memo);
        }
        if source == "table5" {
            print_convergence_map(&claims, &mut memo);
        }
        println!();
        let verdicts = claims.iter().zip(&outcomes).map(|(c, o)| {
            let ci = o.ci.map_or(String::new(), |(lo, hi)| format!("[{lo:.2}, {hi:.2}]"));
            let verdict = match (c.holds(o.value), reproduced.contains(&c.id)) {
                (true, _) => "holds",
                (false, true) => "FAILS",
                (false, false) => "misses (not gated)",
            };
            let band = format!("[{}, {}]", c.band.0, c.band.1);
            let [quick, full] =
                committed.map(|v| v.get(&c.id).map_or("-".into(), |r| format!("{:.2}", r.value)));
            vec![c.id.clone(), format!("{:.2}", o.value), ci, band, quick, full, verdict.into()]
        });
        let verdicts: Vec<_> = verdicts.collect();
        let headers = ["claim", "measured", "[5%,95%] CI", "band", "3 x 50", "5 x 100", "verdict"];
        print!("{}", fmt::table(&headers, &verdicts));
        rows.extend(claims.into_iter().cloned().zip(outcomes));
    }
    Report { rows, arm_runs: memo.arm_runs }
}

/// Mean best-so-far curves of the arms `claims` compare, baselines first:
/// one table per workload (the table lists a source's claims workload by
/// workload).
fn print_curves(claims: &[&Claim], memo: &mut Memo) {
    for group in claims.chunk_by(|a, b| a.cell.workload == b.cell.workload) {
        let cell = &group[0].cell;
        let mut arms: Vec<&Arm> = Vec::new();
        for arm in group.iter().flat_map(|c| c.measure.arms()) {
            if !arms.iter().any(|a| a.label == arm.label) {
                arms.push(arm);
            }
        }
        if arms.is_empty() {
            continue;
        }
        let labels: Vec<&str> = arms.iter().map(|a| a.label.as_str()).collect();
        let curves: Vec<Vec<f64>> = arms.iter().map(|a| memo.arm(cell, a).mean_curve()).collect();
        println!("\n--- {} ---", cell.workload);
        print!("{}", fmt::curve_table(&labels, &curves, 10));
    }
}

/// Figure 10: for every tenth LlamaTune iteration, the earliest vanilla
/// iteration with the same best performance (`-`: vanilla never gets there).
fn print_convergence_map(claims: &[&Claim], memo: &mut Memo) {
    let maps: Vec<Vec<Option<usize>>> = claims
        .iter()
        .map(|c| {
            let curves: Vec<_> =
                c.measure.arms().iter().map(|a| memo.arm(&c.cell, a).mean_curve()).collect();
            convergence_map(&curves[1][1..], &curves[0][1..])
        })
        .collect();
    let headers: Vec<&str> =
        std::iter::once("iter").chain(claims.iter().map(|c| c.cell.workload)).collect();
    let rows = (0..maps[0].len()).step_by(10).map(|i| {
        let reached = maps.iter().map(|m| m[i].map_or("-".into(), |b| b.to_string()));
        std::iter::once((i + 1).to_string()).chain(reached).collect()
    });
    println!("\nFigure 10: earliest vanilla iteration matching LlamaTune's best");
    print!("{}", fmt::table(&headers, &rows.collect::<Vec<_>>()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::{claims, select, SOURCES};
    use llamatune::session::SessionHistory;

    #[test]
    fn the_table_covers_every_source_with_unique_ids_and_81_distinct_arms() {
        let table = claims();
        let ids: HashSet<&str> = table.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), table.len(), "claim ids are unique");
        for (source, _) in SOURCES {
            assert!(!select(Some(source)).is_empty(), "{source} has no claim");
            assert!(select(Some(source)).iter().all(|c| c.source == source));
        }
        assert_eq!(select(None).len(), table.len());
        // The 17 programs this table replaced ran 107 arms to cover these.
        let arms =
            table.iter().flat_map(|c| c.measure.arms().into_iter().map(|a| arm_key(&c.cell, a)));
        assert_eq!(arms.collect::<HashSet<_>>().len(), 81);
    }

    /// The gate is read from the two committed artifacts, so a claim added
    /// or renamed without re-recording both would silently leave it.
    #[test]
    fn both_committed_artifacts_record_every_claim_once_with_its_band_at_their_scale() {
        let table = claims();
        for scale in [ExpScale::QUICK, ExpScale::PAPER] {
            let file = scale.artifact().unwrap();
            let artifact = crate::artifact::read(file).unwrap();
            let config = artifact.get("config").unwrap();
            let num = |key| config.get(key).and_then(JsonValue::as_u64);
            assert_eq!(
                config.get("quick").and_then(JsonValue::as_bool),
                Some(scale.quick),
                "{file}"
            );
            assert_eq!(
                (num("seeds"), num("iterations")),
                (Some(scale.seeds), Some(scale.iterations as u64)),
                "{file}"
            );
            let rows = artifact.get("claims").and_then(JsonValue::as_array).unwrap();
            let id =
                |row: &JsonValue| row.get("id").and_then(JsonValue::as_str).unwrap().to_string();
            for claim in &table {
                let n = rows.iter().filter(|row| id(row) == claim.id).count();
                assert_eq!(n, 1, "{file}: {} recorded {n} times", claim.id);
            }
            // `null` is how the artifact writes an infinite bound.
            let bound =
                |row: &JsonValue, key| row.get(key).unwrap().as_f64().unwrap_or(f64::INFINITY);
            for row in rows {
                let claim = table.iter().find(|c| c.id == id(row));
                let claim = claim.unwrap_or_else(|| panic!("{file}: {} is no claim", id(row)));
                assert_eq!(
                    (bound(row, "band_lo"), bound(row, "band_hi")),
                    claim.band,
                    "{file}: {}",
                    claim.id
                );
            }
        }
    }

    /// A three-source slice at toy scale, end to end: the arm three of its
    /// claims share runs once, and the artifact reads back.
    #[test]
    fn a_slice_runs_each_distinct_arm_once_and_records_every_claim() {
        let scale = ExpScale { seeds: 2, iterations: 6, quick: true };
        let vanilla_smac_on_ycsb_b =
            ["table5/ycsb_b", "fig6/ycsb_b/bias20_vs_none", "fig7/ycsb_b/k10000_vs_none"];
        let slice: Vec<Claim> = claims()
            .into_iter()
            .filter(|c| {
                ["fig4", "table2"].contains(&c.source)
                    || vanilla_smac_on_ycsb_b.contains(&c.id.as_str())
            })
            .collect();
        assert_eq!(slice.len(), 6);
        let none = Verdicts::new();
        let report = run(&slice, scale, [&none, &none], &HashSet::new());
        assert_eq!(report.arm_runs, 4, "six arm requests: one baseline shared, three candidates");

        let artifact = llamatune_obs::json::parse(&report.artifact(scale).json()).unwrap();
        assert_eq!(artifact.get("config").unwrap().get("arm_runs").unwrap().as_f64(), Some(4.0));
        let JsonValue::Arr(rows) = artifact.get("claims").unwrap() else {
            panic!("claims is an array")
        };
        assert_eq!(rows.len(), 6);
        let read_back = recorded(&artifact).unwrap();
        for (row, (claim, outcome)) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("id").unwrap().as_str(), Some(claim.id.as_str()));
            let Recorded { value, holds } = read_back[&claim.id];
            assert_eq!((value, holds), (round(outcome.value, 4), claim.holds(outcome.value)));
        }
        assert!(report.flips(&read_back).is_empty(), "a run agrees with its own record");
        let hybrid = &report.rows.iter().find(|(c, _)| c.id == "table2/v9.6").unwrap().1;
        assert_eq!((hybrid.value, hybrid.rows.len()), (17.0, 17));

        // Time-to-optimal rides on improvement rows only.
        let row = |id: &str| rows.iter().find(|r| r.get("id").unwrap().as_str() == Some(id));
        let outcome = |id: &str| &report.rows.iter().find(|(c, _)| c.id == id).unwrap().1;
        let (table5, measured) = (row("table5/ycsb_b").unwrap(), outcome("table5/ycsb_b"));
        let speedup = measured.speedup.expect("an improvement row carries its speedup");
        for (key, want) in [
            ("speedup", speedup.mean),
            ("speedup_ci_lo", speedup.ci_lo),
            ("speedup_ci_hi", speedup.ci_hi),
        ] {
            assert_eq!(table5.get(key).unwrap().as_f64(), Some(round(want, 4)), "{key}");
        }
        let catch_up = measured.catch_up_iter.map_or(JsonValue::Null, |i| JsonValue::Num(i as f64));
        assert_eq!(table5.get("catch_up_iter"), Some(&catch_up));
        for key in ["speedup", "speedup_ci_lo", "speedup_ci_hi", "catch_up_iter"] {
            assert_eq!(row("table2/v9.6").unwrap().get(key), Some(&JsonValue::Null), "{key}");
        }
    }

    fn arm_with_finals(finals: &[f64]) -> Rc<ArmResult> {
        let history =
            |best: &f64| SessionHistory { best_curve: vec![100.0, *best], ..Default::default() };
        Rc::new(ArmResult { histories: finals.iter().map(history).collect() })
    }

    #[test]
    fn only_a_reproduced_claim_outside_its_band_fails_the_run() {
        let claim = select(Some("table5")).remove(0);
        let arms: Vec<Arm> = claim.measure.arms().into_iter().cloned().collect();
        let verdicts = |holds: &[bool]| -> Verdicts {
            let row = |&holds| (claim.id.clone(), Recorded { value: 1.0, holds });
            holds.iter().map(row).collect()
        };
        let (holding, missing, absent) = (verdicts(&[true]), verdicts(&[false]), verdicts(&[]));
        let report = |candidate_finals: &[f64]| {
            let mut memo = Memo::new(ExpScale { seeds: 2, iterations: 1, quick: true });
            memo.arms.insert(arm_key(&claim.cell, &arms[0]), arm_with_finals(&[200.0, 200.0]));
            memo.arms.insert(arm_key(&claim.cell, &arms[1]), arm_with_finals(candidate_finals));
            let outcome = evaluate(&claim, &mut memo);
            assert_eq!(memo.arm_runs, 0, "both arms were on file");
            Report { rows: vec![(claim.clone(), outcome)], arm_runs: 0 }
        };
        let (inside, outside) = (report(&[220.0, 240.0]), report(&[180.0, 200.0]));
        assert_eq!((inside.rows[0].1.value, outside.rows[0].1.value), (15.0, -5.0));
        let failures =
            |report: &Report, quick, full| report.failures(&reproduced(quick, full)).len();
        assert_eq!(failures(&inside, &holding, &holding), 0, "inside [0, inf)");
        assert_eq!(failures(&outside, &holding, &holding), 1, "reproduced, outside: exit 1");
        for (quick, full, why) in [
            (&holding, &missing, "holds at 3 x 50 only"),
            (&missing, &holding, "holds at 5 x 100 only"),
            (&holding, &absent, "absent from 5 x 100"),
            (&absent, &holding, "absent from 3 x 50"),
            (&missing, &missing, "misses at both"),
        ] {
            assert!(reproduced(quick, full).is_empty(), "{why}: not reproduced");
            assert_eq!(failures(&outside, quick, full), 0, "{why}: not gated");
        }

        // A flip is a verdict other than the recorded one, or no record.
        let id = claim.id.as_str();
        assert_eq!(outside.flips(&holding), [(id, false)]);
        assert!(outside.flips(&missing).is_empty());
        assert_eq!(inside.flips(&absent), [(id, true)]);
    }
}
