//! `taglets` — command-line interface to the TAGLETS reproduction.
//!
//! ```text
//! taglets tasks                         list the evaluation tasks
//! taglets run      [OPTIONS]            run TAGLETS on one task split
//! taglets compare  [OPTIONS]            TAGLETS vs every baseline on one split
//! taglets related  --class NAME         SCADS retrieval for a target class
//!
//! OPTIONS:
//!   --task NAME        task (default office_home_product)
//!   --shots N          labeled examples per class (default 1)
//!   --split N          train/test split seed (default 0)
//!   --seed N           training seed (default 0)
//!   --backbone KIND    resnet50 | bit (default resnet50)
//!   --prune LEVEL      none | 0 | 1 (default none)
//!   --save PATH        write the servable end model to PATH (run only)
//!   --scale SCALE      smoke | paper (default: TAGLETS_SCALE or paper)
//! ```

use std::collections::HashMap;

use taglets::eval::{Experiment, ExperimentScale, Method};
use taglets::{BackboneKind, PruneLevel, TagletsConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let opts = parse_options(&args[1..]).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    let result = match command.as_str() {
        "tasks" => cmd_tasks(&opts),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "related" => cmd_related(&opts),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() -> &'static str {
    "taglets — automatic semi-supervised learning with auxiliary data\n\
     \n\
     USAGE: taglets <tasks|run|compare|related> [--task NAME] [--shots N]\n\
            [--split N] [--seed N] [--backbone resnet50|bit] [--prune none|0|1]\n\
            [--class NAME] [--save PATH] [--scale smoke|paper]"
}

struct Options {
    map: HashMap<String, String>,
}

impl Options {
    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn task(&self) -> &str {
        self.get("task").unwrap_or("office_home_product")
    }

    fn shots(&self) -> Result<usize, String> {
        self.get("shots")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "shots must be a positive integer".to_string())
    }

    fn split(&self) -> Result<u64, String> {
        self.get("split")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "split must be an integer".to_string())
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "seed must be an integer".to_string())
    }

    fn backbone(&self) -> Result<BackboneKind, String> {
        match self.get("backbone").unwrap_or("resnet50") {
            "resnet50" | "resnet" => Ok(BackboneKind::ResNet50ImageNet1k),
            "bit" => Ok(BackboneKind::BitImageNet21k),
            other => Err(format!("unknown backbone `{other}` (use resnet50|bit)")),
        }
    }

    fn prune(&self) -> Result<PruneLevel, String> {
        match self.get("prune").unwrap_or("none") {
            "none" => Ok(PruneLevel::NoPruning),
            "0" => Ok(PruneLevel::Level0),
            "1" => Ok(PruneLevel::Level1),
            other => Err(format!("unknown prune level `{other}` (use none|0|1)")),
        }
    }

    fn scale(&self) -> ExperimentScale {
        match self.get("scale") {
            Some("smoke") => ExperimentScale::Smoke,
            Some(_) => ExperimentScale::Paper,
            None => ExperimentScale::from_env(),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(Options { map })
}

#[expect(
    clippy::expect_used,
    reason = "the CLI's top level: a failed environment build ends the process with its message"
)]
fn build_env(opts: &Options) -> Experiment {
    eprintln!("[building the evaluation environment — one-time cost]");
    Experiment::standard(opts.scale()).expect("the standard environment builds at every scale")
}

fn cmd_tasks(opts: &Options) -> Result<(), String> {
    let env = build_env(opts);
    for task in env.tasks() {
        let summary = taglets::data::TaskSummary::compute(task, env.universe().taxonomy());
        println!("{}", summary.to_line());
    }
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let env = build_env(opts);
    let task = env.task(opts.task()).map_err(|e| e.to_string())?;
    let split = task.split(opts.split()?, opts.shots()?);
    let system = env.system(TagletsConfig::for_backbone(opts.backbone()?));
    let run = system
        .run(task, &split, opts.prune()?, opts.seed()?)
        .map_err(|e| e.to_string())?;
    println!(
        "task {} | {}-shot | split {} | {} | {}",
        task.name,
        split.shots,
        split.split_seed,
        opts.backbone()?,
        opts.prune()?
    );
    println!(
        "selected |R| = {} images / {} aux classes",
        run.num_auxiliary_examples, run.num_auxiliary_classes
    );
    for (taglet, m) in run.taglets.iter().zip(&run.telemetry.modules) {
        let (name, secs) = (&m.name, m.seconds);
        println!(
            "  {:<10} acc {:.3}  ({secs:.2}s)",
            name,
            taglet.accuracy(&split.test_x, &split.test_y)
        );
    }
    println!(
        "  {:<10} acc {:.3}",
        "ensemble",
        run.ensemble().accuracy(&split.test_x, &split.test_y)
    );
    println!(
        "  {:<10} acc {:.3}  ({:.2}s, {} parameters)",
        "end model",
        run.end_model.accuracy(&split.test_x, &split.test_y),
        run.telemetry.end_model_seconds(),
        run.end_model.num_parameters()
    );
    if let Some(path) = opts.get("save") {
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        run.end_model.save(file).map_err(|e| e.to_string())?;
        println!("servable model written to {path}");
    }
    Ok(())
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let env = build_env(opts);
    let task = env.task(opts.task()).map_err(|e| e.to_string())?;
    let split = task.split(opts.split()?, opts.shots()?);
    let backbone = opts.backbone()?;
    let seed = opts.seed()?;
    println!(
        "task {} | {}-shot | split {} | {}",
        task.name, split.shots, split.split_seed, backbone
    );
    let mut methods = Method::table_rows();
    methods.extend(Method::pruning_rows());
    for method in methods {
        let acc = method
            .evaluate(&env, task, &split, backbone, seed)
            .map_err(|e| e.to_string())?;
        println!("  {:<24} {:.3}", method.label(), acc);
    }
    Ok(())
}

fn cmd_related(opts: &Options) -> Result<(), String> {
    let env = build_env(opts);
    let class = opts
        .get("class")
        .ok_or("`related` needs --class NAME (e.g. --class plastic)")?;
    let scads = env.scads();
    let target = scads.graph().require(class).map_err(|e| e.to_string())?;
    for prune in PruneLevel::ALL {
        let related = scads.related_concepts(target, 8, prune, &[target]);
        let names: Vec<String> = related
            .iter()
            .map(|(c, s)| format!("{} ({s:.2})", scads.graph().name(*c)))
            .collect();
        println!("{prune:<14}: {}", names.join(", "));
    }
    Ok(())
}
