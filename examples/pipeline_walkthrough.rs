//! Walkthrough of the unified LlamaTune pipeline (Figures 5 and 8):
//! follows one optimizer suggestion through bucketization, the HeSBO
//! projection, special-value biasing, and conversion to physical knob
//! values.
//!
//! Run with: `cargo run --release --example pipeline_walkthrough`

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::conf_file::to_conf;

fn main() {
    let catalog = postgres_v9_6();
    let config = LlamaTuneConfig { target_dim: 4, ..Default::default() };
    let pipeline = LlamaTunePipeline::new(&catalog, &config, 7);

    // Step 1: the optimizer proposes a point in the bucketized low-dim
    // space [0, 1]^d (the paper's example uses [-0.8, 0.4] in [-1, 1]^2;
    // unit coordinates here).
    let suggestion = [0.1, 0.7, 0.35, 0.9];
    println!("1. BO proposes p in the bucketized {}-dim space:", config.target_dim);
    println!("   p = {suggestion:?}  (grid of K = {:?} values per dim)\n", config.bucket_count);

    // Step 2: HeSBO projects p to the scaled 90-knob space [0, 1]^90 —
    // every knob is controlled by exactly one synthetic dimension.
    let projected = pipeline.project_only(&suggestion);
    println!("2. Count-sketch projection to the {}-knob space (first 8 shown):", catalog.len());
    for (knob, v) in catalog.knobs().iter().zip(&projected).take(8) {
        println!("   {:<36} -> {v:.4}", knob.name);
    }

    // Step 3 + 4: special-value biasing on hybrid knobs, then re-scaling
    // to physical values.
    let (cfg, biased) = pipeline.decode_traced(&suggestion);
    println!("\n3. Special-value biasing (p = 20%) hit {} hybrid knobs:", biased.len());
    for &idx in &biased {
        let knob = &catalog.knobs()[idx];
        println!(
            "   {:<36} = {}   ({})",
            knob.name,
            cfg.values()[idx],
            knob.special.unwrap().meaning
        );
    }

    println!("\n4. Resulting DBMS knob configuration (changed vs default):");
    for line in to_conf(&catalog, &cfg, true).lines().take(15) {
        println!("   {line}");
    }
    println!("   ... (every knob receives a value; config is always valid)");
    assert!(catalog.validate(&cfg).is_ok());
}
