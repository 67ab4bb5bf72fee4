//! Shared helpers for the table/figure bench binaries.

use std::io::Write as _;
use std::path::Path;

use taglets_data::{BackboneKind, Task};
use taglets_eval::{sweep_method, EvalError, Experiment, Method, Stats, SweepCell};

/// One evaluated table cell: a method × backbone × task × shots aggregate.
#[derive(Debug, Clone)]
pub struct TableCell {
    /// Method row label.
    pub method: &'static str,
    /// Backbone column label.
    pub backbone: &'static str,
    /// Task name.
    pub task: String,
    /// Shots per class.
    pub shots: usize,
    /// Aggregated accuracy over training seeds.
    pub stats: Stats,
}

/// Evaluates one cell of a results table: `method` on `task` at `shots`,
/// averaged over the environment scale's training seeds.
///
/// The per-seed runs go through the eval sweep one after another; each
/// TAGLETS run fans its own modules out over the available cores.
///
/// # Errors
///
/// Propagates any [`EvalError`] from the method under evaluation.
pub fn table_cell(
    env: &Experiment,
    method: Method,
    backbone: BackboneKind,
    task: &Task,
    split_seed: u64,
    shots: usize,
) -> Result<TableCell, EvalError> {
    let cells: Vec<SweepCell> = env
        .scale()
        .training_seeds()
        .iter()
        .map(|&seed| SweepCell::new(task.name.clone(), split_seed, shots, seed))
        .collect();
    let values = sweep_method(env, method, backbone, &cells)?;
    Ok(TableCell {
        method: method.label(),
        backbone: backbone.display_name(),
        task: task.name.clone(),
        shots,
        stats: Stats::from_values(&values),
    })
}

/// Renders a full paper-style results table (the layout of Tables 1–6) for
/// a pair of tasks on one split: every method × backbone block, the TAGLETS
/// pruning rows (ResNet-50 block, as in the paper), and `shots` columns per
/// task.
pub fn method_table(
    env: &Experiment,
    task_names: &[&str],
    split_seed: u64,
) -> Result<taglets_eval::TextTable, EvalError> {
    let tasks: Vec<&Task> = task_names
        .iter()
        .map(|n| env.task(n))
        .collect::<Result<_, _>>()?;
    let mut header = vec!["Method".to_string(), "Backbone".to_string()];
    for task in &tasks {
        for shots in shot_grid(task) {
            header.push(format!("{} {shots}-shot", task.name));
        }
    }
    let mut table = taglets_eval::TextTable::new(header);
    for backbone in taglets_data::BackboneKind::ALL {
        for method in Method::table_rows() {
            let mut cells = vec![
                method.label().to_string(),
                backbone.display_name().to_string(),
            ];
            for task in &tasks {
                for shots in shot_grid(task) {
                    let cell = table_cell(env, method, backbone, task, split_seed, shots)?;
                    cells.push(cell.stats.to_string());
                }
            }
            table.row(cells);
        }
        table.separator();
    }
    for method in Method::pruning_rows() {
        let backbone = taglets_data::BackboneKind::ResNet50ImageNet1k;
        let mut cells = vec![
            method.label().to_string(),
            backbone.display_name().to_string(),
        ];
        for task in &tasks {
            for shots in shot_grid(task) {
                let cell = table_cell(env, method, backbone, task, split_seed, shots)?;
                cells.push(cell.stats.to_string());
            }
        }
        table.row(cells);
    }
    Ok(table)
}

/// The shot counts a task supports, in paper order (Grocery skips 20-shot).
pub fn shot_grid(task: &Task) -> Vec<usize> {
    [1usize, 5, 20]
        .into_iter()
        .filter(|&s| s <= task.max_shots)
        .collect()
}

/// Writes rendered results both to stdout and to `results/<name>.txt` at the
/// workspace root (benches run with the package directory as CWD, so the
/// path is resolved from `CARGO_MANIFEST_DIR` when available).
pub fn write_results(name: &str, rendered: &str) {
    println!("{rendered}");
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| Path::new(&m).join("../.."))
        .unwrap_or_else(|_| Path::new(".").to_path_buf());
    let dir = root.join("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(rendered.as_bytes());
            eprintln!("[written to {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn shot_grid_respects_max_shots() {
        // A task cannot be built directly here without an environment, so
        // just verify the filter logic with the public shape.
        assert_eq!(
            [1usize, 5, 20]
                .into_iter()
                .filter(|&s| s <= 5)
                .collect::<Vec<_>>(),
            vec![1, 5]
        );
    }
}
