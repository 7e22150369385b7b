//! The sweeps around the paper's two tables, on the Table 1/2
//! configuration with one knob moved at a time:
//!
//! * **watermarks** — the §5.2.3 flow-control watermarks ("currently 3
//!   and 5 … the write handler will issue up to five additional
//!   reads"): SCP throughput on RAM and RZ58 as the read-refill batch
//!   and the watermarks move. Depth 1 serialises the pipeline; large
//!   depths stop paying once the devices saturate. Each row carries the
//!   SCP span's `max_pending_reads`/`max_pending_writes`, so the
//!   configured depths are directly visible.
//! * **blocksize** — the filesystem block size. Per-block costs
//!   (system calls for CP, handler chains for SCP) are fixed, so larger
//!   blocks amortise them; the paper's 8 KB FFS block is the middle row.
//! * **budget** — the deferred-kernel-work budget per tick, the
//!   mechanism behind the availability result: it bounds how much of a
//!   busy CPU the splice chains may take per tick. Sweeping it trades
//!   SCP contended throughput against test-program availability.
//! * **hz** — the clock frequency. The splice write side is dispatched
//!   from softclock, so the callout tick is the pacing quantum of the
//!   whole pipeline (§5.2.2); `cp` never touches the callout list.
//! * **filesize** — §6.2: "Alternative sizes for the file were
//!   statistically indistinguishable from the 8 MB representative
//!   case". The SCP/CP ratio should be flat across sizes.
//! * **baselines** — the §7 related work: \[PCM91\] ioctl handle passing
//!   and the memory-mapped copy against CP and SCP, on all three disks.
//! * **baselines_avail** — Table 1's availability procedure extended to
//!   those baselines on the RAM disk. \[PCM91\]'s scheme "requires user
//!   process execution to effect a data transfer", so its availability
//!   should look like CP's even though it copies nothing.
//!
//! Prints one table per sweep and writes `BENCH_ablate.json` with one
//! row array per sweep. Rows carry the unrounded throughput and
//! availability numbers but no metrics snapshots: Tables 1 and 2 hold
//! those for the paper's configuration.

use bench::{
    availability, bench_doc, idle_baseline, print_table, throughput, write_table, DiskRow,
    Experiment, Method,
};
use ksim::{Dur, Json};
use splice::FlowControl;

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn pct_improve(scp_kb_per_s: f64, cp_kb_per_s: f64) -> String {
    format!("{:+.0}%", (scp_kb_per_s / cp_kb_per_s - 1.0) * 100.0)
}

fn watermarks() -> Json {
    println!("Ablation — splice flow-control watermarks (SCP KB/s)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (lo_r, lo_w, batch) in [
        (1, 1, 1),
        (1, 2, 2),
        (3, 5, 5), // the paper's setting
        (5, 8, 8),
        (8, 16, 16),
    ] {
        let mut row = vec![format!("{lo_r}/{lo_w}/{batch}")];
        for disk in [DiskRow::Ram, DiskRow::Rz58] {
            let mut exp = Experiment::paper(disk);
            exp.config.flow = FlowControl {
                lo_reads: lo_r,
                lo_writes: lo_w,
                batch,
            };
            let r = throughput(&exp, Method::Scp);
            row.push(format!("{:.0}", r.kb_per_s));
            let (max_r, max_w) = r.snapshot.splice.spans.iter().fold((0, 0), |(pr, pw), s| {
                (pr.max(s.max_pending_reads), pw.max(s.max_pending_writes))
            });
            let row = Json::obj()
                .with("disk", Json::Str(disk.label().into()))
                .with("lo_reads", num(lo_r))
                .with("lo_writes", num(lo_w))
                .with("batch", num(batch));
            runs.push(
                r.summarize(row)
                    .with("max_pending_reads", num(max_r))
                    .with("max_pending_writes", num(max_w)),
            );
        }
        rows.push(row);
    }
    print_table(&["lo_r/lo_w/batch", "RAM", "RZ58"], &rows);
    println!();
    println!("paper setting is 3/5/5; depth 1 serialises the pipeline");
    Json::Arr(runs)
}

fn blocksize() -> Json {
    println!("Ablation — filesystem block size (RAM disk, KB/s)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for bs in [4096u32, 8192, 16384] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = 4 * 1024 * 1024; // keep the sweep fast
        exp.config.block_size = bs;
        let cp = throughput(&exp, Method::Cp);
        let scp = throughput(&exp, Method::Scp);
        rows.push(vec![
            format!("{} KB", bs / 1024),
            format!("{:.0}", scp.kb_per_s),
            format!("{:.0}", cp.kb_per_s),
            pct_improve(scp.kb_per_s, cp.kb_per_s),
        ]);
        runs.push(
            Json::obj()
                .with("block_size", num(bs))
                .with("scp", scp.summarize(Json::obj()))
                .with("cp", cp.summarize(Json::obj())),
        );
    }
    print_table(&["Block", "SCP", "CP", "%Improve"], &rows);
    Json::Arr(runs)
}

fn budget() -> Json {
    println!("Ablation — softwork budget per tick (RAM disk, SCP environment)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for frac_pct in [5u64, 10, 20, 40, 80] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        let tick = exp.config.machine.tick();
        exp.config.machine.softwork_budget_per_tick = Dur::from_ns(tick.as_ns() * frac_pct / 100);
        let idle = idle_baseline(&exp);
        let r = availability(&exp, Method::Scp, idle);
        rows.push(vec![
            format!("{frac_pct}%"),
            format!("{:.2}", r.slowdown),
            format!("{:.0}%", r.speed_fraction * 100.0),
        ]);
        runs.push(r.summarize(Json::obj().with("budget_pct", num(frac_pct as f64))));
    }
    print_table(&["Budget", "F_scp", "test speed"], &rows);
    println!();
    println!("default is 20% of a tick; the paper's machine showed test at 80%");
    Json::Arr(runs)
}

fn hz() -> Json {
    println!("Ablation — clock frequency (RAM disk)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for hz in [64u64, 128, 256, 512, 1024] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = 4 * 1024 * 1024;
        exp.config.machine.hz = hz;
        // Keep the budget the same *fraction* of a tick.
        exp.config.machine.softwork_budget_per_tick =
            Dur::from_ns(exp.config.machine.tick().as_ns() / 5);
        let scp = throughput(&exp, Method::Scp);
        let cp = throughput(&exp, Method::Cp);
        let idle = idle_baseline(&exp);
        let avail = availability(&exp, Method::Scp, idle);
        rows.push(vec![
            format!("{hz}"),
            format!("{:.0}", scp.kb_per_s),
            format!("{:.0}", cp.kb_per_s),
            format!("{:.0}%", avail.speed_fraction * 100.0),
        ]);
        runs.push(
            Json::obj()
                .with("hz", num(hz as f64))
                .with("scp", scp.summarize(Json::obj()))
                .with("cp", cp.summarize(Json::obj()))
                .with("scp_availability", avail.summarize(Json::obj())),
        );
    }
    print_table(&["HZ", "SCP KB/s", "CP KB/s", "test@SCP"], &rows);
    println!();
    println!("Ultrix on the DECstation ran HZ = 256 (the middle row).");
    Json::Arr(runs)
}

fn filesize() -> Json {
    println!("File-size sweep — RAM disk copy throughput (KB/s)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for mb in [1u64, 2, 4, 6, 7] {
        let mut exp = Experiment::paper(DiskRow::Ram);
        exp.file_bytes = mb * 1024 * 1024;
        let cp = throughput(&exp, Method::Cp);
        let scp = throughput(&exp, Method::Scp);
        rows.push(vec![
            format!("{mb} MB"),
            format!("{:.0}", scp.kb_per_s),
            format!("{:.0}", cp.kb_per_s),
            pct_improve(scp.kb_per_s, cp.kb_per_s),
        ]);
        runs.push(
            Json::obj()
                .with("file_bytes", num(exp.file_bytes as f64))
                .with("scp", scp.summarize(Json::obj()))
                .with("cp", cp.summarize(Json::obj())),
        );
    }
    print_table(&["Size", "SCP", "CP", "%Improve"], &rows);
    println!();
    println!("(The 16 MB RAM disk holds at most a 7 MB source + copy.)");
    println!("Expectation: the SCP/CP ratio is flat across sizes (§6.2).");
    Json::Arr(runs)
}

fn baselines() -> Json {
    println!("Related-work baselines — 8 MB copy throughput (KB/s)");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for disk in DiskRow::all() {
        let exp = Experiment::paper(disk);
        let mut row = vec![disk.label().to_string()];
        for m in [
            Method::Cp,
            Method::Handle,
            Method::Mmap,
            Method::ScpSync,
            Method::Scp,
        ] {
            let r = throughput(&exp, m);
            row.push(format!("{:.0}", r.kb_per_s));
            runs.push(
                r.summarize(
                    Json::obj()
                        .with("disk", Json::Str(disk.label().into()))
                        .with("method", Json::Str(m.label().into())),
                ),
            );
        }
        rows.push(row);
    }
    print_table(&["Disk", "CP", "HANDLE", "MMAP", "SCP(sync)", "SCP"], &rows);
    println!();
    println!("HANDLE avoids the copies but keeps two syscalls per block;");
    println!("MMAP avoids syscalls but pays page faults and a user-clock copy;");
    println!("SCP avoids both and runs asynchronously in the kernel.");
    Json::Arr(runs)
}

fn baselines_avail() -> Json {
    println!("Extension — CPU availability of the related-work baselines (RAM disk)");
    let exp = Experiment::paper(DiskRow::Ram);
    let idle = idle_baseline(&exp);
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for m in [Method::Cp, Method::Handle, Method::Mmap, Method::Scp] {
        let r = availability(&exp, m, idle);
        rows.push(vec![
            m.label().to_string(),
            format!("{:.2}", r.slowdown),
            format!("{:.0}%", r.speed_fraction * 100.0),
        ]);
        runs.push(r.summarize(Json::obj().with("method", Json::Str(m.label().into()))));
    }
    print_table(&["Method", "F", "test speed"], &rows);
    println!();
    println!("copy-free but user-driven (HANDLE) still costs the bystander its");
    println!("timeslices; only the in-kernel asynchronous path (SCP) does not.");
    Json::Arr(runs)
}

/// One sweep: prints its table and returns its JSON rows.
type Sweep = fn() -> Json;

fn main() {
    let sweeps: [(&str, Sweep); 7] = [
        ("watermarks", watermarks),
        ("blocksize", blocksize),
        ("budget", budget),
        ("hz", hz),
        ("filesize", filesize),
        ("baselines", baselines),
        ("baselines_avail", baselines_avail),
    ];
    let mut doc = bench_doc("ablate");
    for (i, (name, sweep)) in sweeps.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        doc.set(name, sweep());
    }
    write_table("ablate", &doc);
}
