//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! figures table1|table2|table3|storage|fig9|fig10|fig11|fig12|ablation|all
//!         [--scale test|small|medium|large|paper]
//! ```
//!
//! Output is printed as text tables shaped like the paper's figures;
//! `EXPERIMENTS.md` records a captured run against the paper's claims.
//! The grid cells the requested figures draw on are simulated once each
//! before anything is printed (`all`: the 71 cells of the paper grid).

use hic_apps::{intra_apps, AppRun, Scale};
use hic_bench::{fig10_rows, fig11_rows, fig12_rows, fig9_rows};
use hic_bench::{hop_latency_sweep, ieb_capacity_sweep, meb_capacity_sweep};
use hic_bench::{parse_scale, run_grid};
use hic_core::storage::{coherent_storage_bits, incoherent_storage_bits, savings_kb};
use hic_runtime::{Config, InterConfig, IntraConfig, Scheme};
use hic_sim::MachineConfig;

fn table1() {
    println!("Table I: communication patterns observed in our applications");
    println!("{:-14} | {:-28} | {:-28}", "Appl.", "Main", "Other");
    println!("{:-<14}-+-{:-<28}-+-{:-<28}", "", "", "");
    for app in intra_apps(Scale::Test) {
        let p = app.patterns();
        println!(
            "{:-14} | {:-28} | {}",
            app.name(),
            p.main_label(),
            p.other_label()
        );
    }
}

fn table2() {
    println!("Table II: configurations evaluated");
    println!("-- Intra-Block Experiments --");
    for c in IntraConfig::ALL {
        let desc = match c {
            IntraConfig::Base => "Baseline: WB ALL and INV ALL",
            IntraConfig::BM => "Base plus MEB",
            IntraConfig::BI => "Base plus IEB",
            IntraConfig::BMI => "Base plus MEB and IEB",
            IntraConfig::Hcc => "Hardware cache coherence",
            IntraConfig::Dragon => "Hardware cache coherence (update-based)",
        };
        println!("{:-8} {}", c.name(), desc);
    }
    println!("-- Inter-Block Experiments --");
    for c in InterConfig::ALL {
        let desc = match c {
            InterConfig::Base => "Baseline: WB ALL to L3; INV ALL from L2",
            InterConfig::Addr => "WB of addresses to L3; INV of addresses from L2",
            InterConfig::AddrL => "WB_CONS and INV_PROD",
            InterConfig::Hcc => "Hardware cache coherence",
            InterConfig::Dragon => "Hardware cache coherence (update-based)",
        };
        println!("{:-8} {}", c.name(), desc);
    }
}

fn table3() {
    println!("Table III: architecture modeled (RT = round trip)");
    for (name, cfg) in [
        ("Intra-Block", MachineConfig::intra_block()),
        ("Inter-Block", MachineConfig::inter_block()),
    ] {
        println!("-- {name} --");
        println!(
            "  cores: {} ({} block(s) x {})",
            cfg.num_cores(),
            cfg.num_blocks(),
            cfg.cores_per_block()
        );
        println!(
            "  L1: {}KB, {}-way, {}-cycle RT, {}B lines",
            cfg.l1.size_bytes / 1024,
            cfg.l1.ways,
            cfg.l1_rt,
            cfg.l1.line_bytes
        );
        println!(
            "  MEB: {} entries ({}b ID + 1b valid); IEB: {} entries (40b + 1b)",
            cfg.meb_entries,
            cfg.l1.line_id_bits(),
            cfg.ieb_entries
        );
        println!(
            "  L2: {} banks/block x {}KB, {}-way, {}-cycle RT",
            cfg.l2_banks_per_block(),
            cfg.l2.size_bytes / 1024,
            cfg.l2.ways,
            cfg.l2_rt
        );
        if let Some(l3) = cfg.l3() {
            println!(
                "  L3: {} banks x {}MB, {}-way, {}-cycle RT",
                l3.banks,
                l3.geometry.size_bytes / (1024 * 1024),
                l3.geometry.ways,
                l3.rt
            );
        }
        println!(
            "  mesh: {} cycles/hop, {}-bit links; memory {}-cycle RT at corners",
            cfg.hop_cycles, cfg.link_bits, cfg.mem_rt
        );
    }
}

fn storage() {
    let cfg = MachineConfig::inter_block();
    println!("Section VII-A: control and storage overhead (32-core, 4x8)");
    for (name, rep) in [
        (
            "coherent (hierarchical full-map MESI)",
            coherent_storage_bits(&cfg),
        ),
        (
            "incoherent (valid + per-word dirty, MEB/IEB/ThreadMap)",
            incoherent_storage_bits(&cfg),
        ),
    ] {
        println!("-- {name} --");
        for (item, bits) in &rep.items {
            println!(
                "  {:-44} {:>10} bits ({:>7.2} KB)",
                item,
                bits,
                *bits as f64 / 8192.0
            );
        }
        println!(
            "  {:-44} {:>10} bits ({:>7.2} KB)",
            "TOTAL",
            rep.total_bits(),
            rep.total_kb()
        );
    }
    println!(
        "incoherent saves {:.1} KB (paper: \"about 102KB\")",
        savings_kb(&cfg)
    );
}

fn fig9(runs: &[AppRun]) {
    println!("Figure 9: normalized execution time, intra-block (HCC = 1.00)");
    println!(
        "{:-14} {:-6} {:>12} {:>6}  {:>6} {:>6} {:>6} {:>7} {:>6}  ok",
        "app", "config", "cycles", "norm", "inv", "wb", "lock", "barrier", "rest"
    );
    for r in fig9_rows(runs) {
        println!(
            "{:-14} {:-6} {:>12} {:>6.2}  {:>6.3} {:>6.3} {:>6.3} {:>7.3} {:>6.3}  {}",
            r.app,
            r.config,
            r.cycles,
            r.normalized,
            r.breakdown[0],
            r.breakdown[1],
            r.breakdown[2],
            r.breakdown[3],
            r.breakdown[4],
            if r.correct { "yes" } else { "NO" }
        );
    }
}

fn fig10(runs: &[AppRun]) {
    println!("Figure 10: normalized network traffic, HCC vs B+M+I (flits)");
    println!(
        "{:-14} {:-6} {:>10} {:>10} {:>10} {:>12} {:>6}",
        "app", "config", "memory", "linefill", "writeback", "invalidation", "norm"
    );
    for r in fig10_rows(runs) {
        println!(
            "{:-14} {:-6} {:>10} {:>10} {:>10} {:>12} {:>6.2}",
            r.app, r.config, r.flits[0], r.flits[1], r.flits[2], r.flits[3], r.normalized
        );
    }
}

fn fig11(runs: &[AppRun]) {
    println!("Figure 11: global WBs and INVs, Addr+L normalized to Addr");
    println!(
        "{:-8} {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "app", "WB(Addr)", "WB(A+L)", "ratio", "INV(Addr)", "INV(A+L)", "ratio"
    );
    for r in fig11_rows(runs) {
        println!(
            "{:-8} {:>10} {:>10} {:>8.2} | {:>10} {:>10} {:>8.2}",
            r.app,
            r.addr_global_wbs,
            r.addrl_global_wbs,
            r.wb_ratio,
            r.addr_global_invs,
            r.addrl_global_invs,
            r.inv_ratio
        );
    }
}

fn fig12(runs: &[AppRun]) {
    println!("Figure 12: normalized execution time, inter-block (HCC = 1.00)");
    println!(
        "{:-10} {:-6} {:>12} {:>6}  ok",
        "app", "config", "cycles", "norm"
    );
    for r in fig12_rows(runs) {
        println!(
            "{:-10} {:-6} {:>12} {:>6.2}  {}",
            r.app,
            r.config,
            r.cycles,
            r.normalized,
            if r.correct { "yes" } else { "NO" }
        );
    }
}

fn ablation() {
    println!("Ablation: MEB capacity (B+M, 64 jobs, 8 lines written per CS)");
    println!(
        "{:>8} {:>10} {:>8} {:>10}",
        "entries", "cycles", "drains", "overflows"
    );
    for p in meb_capacity_sweep(8) {
        println!(
            "{:>8} {:>10} {:>8} {:>10}",
            p.parameter, p.cycles, p.meb_drains, p.meb_overflows
        );
    }
    println!("\nAblation: IEB capacity (B+I, 64 jobs, 8 lines per CS)");
    println!("{:>8} {:>10} {:>10}", "entries", "cycles", "refreshes");
    for p in ieb_capacity_sweep(8) {
        println!(
            "{:>8} {:>10} {:>10}",
            p.parameter, p.cycles, p.ieb_refreshes
        );
    }
    println!("\nAblation: mesh hop latency (Base vs HCC, task-queue kernel)");
    println!(
        "{:>8} {:>10} {:>10} {:>8}",
        "cyc/hop", "Base", "HCC", "ratio"
    );
    for (hop, base, hcc) in hop_latency_sweep() {
        println!(
            "{:>8} {:>10} {:>10} {:>8.2}",
            hop,
            base,
            hcc,
            base as f64 / hcc as f64
        );
    }
}

/// Whether `target` draws on the grid cell run under `config`.
fn needs(target: &str, config: Config) -> bool {
    match (target, config.scheme()) {
        ("all", _) | ("fig9", Scheme::Intra(_)) | ("fig12", Scheme::Inter(_)) => true,
        ("fig10", Scheme::Intra(c)) => matches!(c, IntraConfig::Hcc | IntraConfig::BMI),
        ("fig11", Scheme::Inter(c)) => matches!(c, InterConfig::Addr | InterConfig::AddrL),
        _ => false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args, Scale::Small);
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    let (_, runs) = run_grid(scale, |req| needs(what, req.config).then_some(req));
    let runs: Vec<AppRun> = runs.into_iter().map(|(run, _)| run).collect();
    match what {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "storage" => storage(),
        "fig9" => fig9(&runs),
        "fig10" => fig10(&runs),
        "fig11" => fig11(&runs),
        "fig12" => fig12(&runs),
        "ablation" => ablation(),
        "all" => {
            table1();
            println!();
            table2();
            println!();
            table3();
            println!();
            storage();
            println!();
            fig9(&runs);
            println!();
            fig10(&runs);
            println!();
            fig11(&runs);
            println!();
            fig12(&runs);
        }
        other => {
            eprintln!(
                "unknown target {other:?}; use table1|table2|table3|storage|fig9|fig10|fig11|fig12|ablation|all"
            );
            std::process::exit(2);
        }
    }
}
