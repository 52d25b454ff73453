//! Regenerate every figure/claim experiment and print the tables.
//!
//! ```sh
//! cargo run -p mda-bench --release --bin experiments            # all
//! cargo run -p mda-bench --release --bin experiments -- c1 c6   # subset
//! ```

use std::time::Instant;

/// A named experiment: CLI selector and table generator.
type Experiment = (&'static str, fn() -> String);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<Experiment> = vec![
        ("fig1", mda_bench::fig1_coverage::run),
        ("fig2", mda_bench::fig2_pipeline::run),
        ("c1", mda_bench::c1_synopses::run),
        ("c2", mda_bench::c2_veracity::run),
        ("c3", mda_bench::c3_godark::run),
        ("c4", mda_bench::c4_events::run),
        ("c5", mda_bench::c5_fusion::run),
        ("c6", mda_bench::c6_forecast::run),
        ("c7", mda_bench::c7_knn::run),
        ("c8", mda_bench::c8_semantics::run),
        ("c9", mda_bench::c9_viz::run),
    ];
    let selected: Vec<&Experiment> = if args.is_empty() {
        all.iter().collect()
    } else {
        all.iter().filter(|(name, _)| args.iter().any(|a| a == name)).collect()
    };
    if selected.is_empty() {
        eprintln!("unknown experiment; available: fig1 fig2 c1..c9");
        std::process::exit(2);
    }
    let start = Instant::now();
    for (name, run) in selected {
        let t0 = Instant::now();
        let text = run();
        println!("\n{}", "#".repeat(72));
        println!("######## experiment {name} ({:.1}s)", t0.elapsed().as_secs_f64());
        println!("{}\n{text}", "#".repeat(72));
    }
    eprintln!("\nall selected experiments done in {:.1}s", start.elapsed().as_secs_f64());
}
