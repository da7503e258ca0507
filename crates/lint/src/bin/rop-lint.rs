//! `rop-lint` — static analysis gate for the ROP reproduction.
//!
//! ```text
//! rop-lint check-config [experiment...]   vet experiment job configs (default: all)
//! rop-lint verify-rop [--mutate NAME]     search the real ROP engine's phase machine
//! rop-lint src [--root DIR] [--baseline FILE] [--update-baseline]
//!                                         determinism/robustness source lint
//! rop-lint verify-mech [mech...] [--mutate NAME] [--depth N] [--trace-dir DIR]
//!                                         model-check the refresh-mechanism zoo
//! rop-lint rules                          list the config rule catalog
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/environment error.

use std::path::PathBuf;

use rop_core::RopConfig;
use rop_lint::config::{lint_jobs, RULES};
use rop_lint::mech::{check_mechanism, parse_mechanism, zoo, MechCheckConfig, Mutation};
use rop_lint::rop::{self, check_rop};
use rop_lint::srclint::{compare, parse_baseline, render_baseline, scan_workspace, to_baseline};
use rop_memctrl::MechanismKind;
use rop_sim_system::experiments::driver::{plan_jobs, EXPERIMENTS};
use rop_sim_system::runner::RunSpec;

const USAGE: &str = "usage: rop-lint <command> [args]\n\
  check-config [experiment...]   vet experiment job configs (default: all)\n\
  verify-rop [--mutate NAME]     search the real ROP engine's phase machine\n\
                                 (mutations: no-completion no-hit-stats\n\
                                 stuck-skip)\n\
  src [--root DIR] [--baseline FILE] [--update-baseline]\n\
                                 determinism/robustness source lint\n\
  verify-mech [mech...] [--mutate NAME] [--depth N] [--trace-dir DIR]\n\
                                 exhaustively model-check the refresh zoo\n\
                                 (mechs: allbank allbank-pb elastic darp sarp\n\
                                 raidr; default all)\n\
  rules                          list the config rule catalog";

fn cmd_check_config(args: &[String]) -> Result<i32, String> {
    let experiments: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    // The spec's work quota never affects config legality; any value
    // enumerates the same grid.
    let spec = RunSpec {
        instructions: 1000,
        max_cycles: 1000,
        seed: 1,
    };
    let mut bad = false;
    for exp in experiments {
        if !EXPERIMENTS.contains(&exp) {
            return Err(format!(
                "unknown experiment '{exp}' (expected one of: {})",
                EXPERIMENTS.join(" ")
            ));
        }
        let jobs = plan_jobs(exp, spec)?;
        let report = lint_jobs(&jobs);
        if report.clean() {
            println!("check-config {exp}: ok — {} job config(s)", report.points);
        } else {
            bad = true;
            println!("check-config {exp}: FAIL");
            print!("{}", report.render());
        }
    }
    Ok(if bad { 1 } else { 0 })
}

fn cmd_verify_rop(args: &[String]) -> Result<i32, String> {
    let mutation = match args {
        [] => None,
        [flag, name] if flag == "--mutate" => {
            Some(rop::Mutation::parse(name).ok_or_else(|| {
                format!(
                    "unknown mutation '{name}' (expected one of: {})",
                    rop::Mutation::ALL.map(rop::Mutation::label).join(" ")
                )
            })?)
        }
        _ => return Err("usage: rop-lint verify-rop [--mutate NAME]".to_string()),
    };
    let report = check_rop(&RopConfig::paper_default(), mutation);
    print!("{}", report.render());
    Ok(if report.ok() { 0 } else { 1 })
}

fn cmd_src(args: &[String]) -> Result<i32, String> {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = PathBuf::from(args.get(i).ok_or("--root needs a value")?);
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(PathBuf::from(
                    args.get(i).ok_or("--baseline needs a value")?,
                ));
            }
            "--update-baseline" => update = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("rop-lint.baseline"));

    let findings =
        scan_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if update {
        let text = render_baseline(&to_baseline(&findings));
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "src: baseline rewritten with {} finding(s) at {}",
            findings.len(),
            baseline_path.display()
        );
        return Ok(0);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => parse_baseline(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
        Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
    };
    let report = compare(&findings, &baseline);
    for (rule, path, accepted, current) in &report.regressions {
        println!("src: NEW [{rule}] {path}: {current} finding(s), baseline allows {accepted}");
        for f in findings
            .iter()
            .filter(|f| f.rule == rule && &f.path == path)
        {
            println!("  {f}");
        }
    }
    for (rule, path, accepted, current) in &report.improvements {
        println!(
            "src: improved [{rule}] {path}: {current} < baseline {accepted} \
             (ratchet down with --update-baseline)"
        );
    }
    for (rule, path, accepted) in &report.stale {
        println!(
            "src: STALE [{rule}] {path}: baseline allows {accepted} but no finding remains \
             (remove the entry with --update-baseline)"
        );
    }
    if report.ok() {
        println!("src: ok — {} finding(s), none above baseline", report.total);
        Ok(0)
    } else {
        println!("src: FAIL — findings above baseline or stale baseline entries");
        Ok(1)
    }
}

fn cmd_verify_mech(args: &[String]) -> Result<i32, String> {
    let mut kinds: Vec<MechanismKind> = Vec::new();
    let mut mutation: Option<Mutation> = None;
    let mut depth: Option<usize> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mutate" => {
                i += 1;
                let name = args.get(i).ok_or("--mutate needs a value")?;
                mutation = Some(Mutation::parse(name).ok_or_else(|| {
                    format!(
                        "unknown mutation '{name}' (expected one of: {})",
                        Mutation::ALL.map(Mutation::label).join(" ")
                    )
                })?);
            }
            "--depth" => {
                i += 1;
                let v = args.get(i).ok_or("--depth needs a value")?;
                depth = Some(v.parse().map_err(|e| format!("--depth {v}: {e}"))?);
            }
            "--trace-dir" => {
                i += 1;
                trace_dir = Some(PathBuf::from(
                    args.get(i).ok_or("--trace-dir needs a value")?,
                ));
            }
            name => {
                kinds.push(parse_mechanism(name).ok_or_else(|| {
                    format!(
                        "unknown mechanism '{name}' (expected one of: {})",
                        zoo().map(|k| k.label()).join(" ")
                    )
                })?);
            }
        }
        i += 1;
    }

    let mut configs: Vec<MechCheckConfig> = match mutation {
        Some(m) => {
            if kinds.iter().any(|k| k.label() != m.target().label()) {
                return Err(format!(
                    "--mutate {} targets {}; don't pass other mechanisms with it",
                    m.label(),
                    m.target().label()
                ));
            }
            vec![MechCheckConfig::mutated(m)]
        }
        None if kinds.is_empty() => zoo().map(MechCheckConfig::gate).to_vec(),
        None => kinds.into_iter().map(MechCheckConfig::gate).collect(),
    };
    if let Some(d) = depth {
        for cfg in &mut configs {
            cfg.max_steps = d;
        }
    }

    let mut bad = false;
    for cfg in &configs {
        let report = check_mechanism(cfg);
        print!("{}", report.render());
        if !report.ok() {
            bad = true;
            if let (Some(dir), Some(replay)) = (&trace_dir, &report.replay) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let name = match cfg.mutation {
                    Some(m) => format!("{}+{}", cfg.kind.label(), m.label()),
                    None => cfg.kind.label().to_string(),
                };
                let path = dir.join(format!("counterexample-{name}.txt"));
                let mut text = String::new();
                if let Some(v) = &report.violation {
                    text.push_str(&format!("{v}\nchoices: {:?}\n\ntrace:\n", v.path));
                }
                for e in &replay.events {
                    text.push_str(&format!("{e:?}\n"));
                }
                text.push_str("\nauditor replay:\n");
                text.push_str(&replay.report);
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                println!("  counterexample written to {}", path.display());
            }
        }
    }
    Ok(if bad { 1 } else { 0 })
}

fn cmd_rules() {
    for r in RULES {
        println!("{:16} {}", r.id, r.summary);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("check-config") => cmd_check_config(&args[1..]),
        Some("verify-rop") => cmd_verify_rop(&args[1..]),
        Some("src") => cmd_src(&args[1..]),
        Some("verify-mech") => cmd_verify_mech(&args[1..]),
        Some("rules") => {
            cmd_rules();
            Ok(0)
        }
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(c) => std::process::exit(c),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
