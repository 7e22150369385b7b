//! Block-latency report: distribution of synchronous read waits (CP),
//! splice block round-trips (SCP), and the per-stage splice pipeline
//! histograms — the microscopic view behind the tables.

use bench::{print_table, DiskRow, Experiment, Method};
use ksim::Hist;
use splice::Kernel;

fn run(disk: DiskRow, method: Method) -> Kernel {
    let exp = Experiment::paper(disk);
    let mut k = exp.boot();
    k.spawn(exp.copier(method, 1));
    let horizon = k.horizon(1200);
    k.run_to_exit(horizon);
    k
}

fn fmt_us(ns: Option<u64>) -> String {
    ns.map(|v| format!("{:.0}", v as f64 / 1000.0))
        .unwrap_or_else(|| "-".into())
}

fn hist_row(label: String, h: &Hist) -> Vec<String> {
    vec![
        label,
        format!("{}", h.count()),
        fmt_us(h.min()),
        fmt_us(h.p50()),
        fmt_us(h.p90()),
        fmt_us(h.p99()),
        fmt_us(h.max()),
    ]
}

fn main() {
    println!("Block latency distributions (us), 8 MB copy");
    let mut rows = Vec::new();
    let mut stage_rows = Vec::new();
    for disk in DiskRow::all() {
        let k = run(disk, Method::Cp);
        rows.push(hist_row(
            format!("{} CP read-wait", disk.label()),
            &k.kstat().read_wait,
        ));
        let k = run(disk, Method::Scp);
        rows.push(hist_row(
            format!("{} SCP block", disk.label()),
            &k.kstat().stages.end_to_end,
        ));
        for (stage, h) in k.kstat().stages.iter() {
            stage_rows.push(hist_row(format!("{} {stage}", disk.label()), h));
        }
    }
    print_table(&["Path", "n", "min", "p50", "p90", "p99", "max"], &rows);
    println!();
    println!("Per-stage splice pipeline (SCP runs, us):");
    print_table(
        &["Stage", "n", "min", "p50", "p90", "p99", "max"],
        &stage_rows,
    );
    println!();
    println!("CP read-wait: time a read(2) slept in biowait per block miss.");
    println!("SCP block: read-issue to write-complete per spliced block");
    println!("(several blocks in flight at once, so throughput is higher");
    println!("than 1/latency). Percentiles are log-bucket upper bounds.");
}
