//! Simulator-speed table: pins host events-per-second the way Tables
//! 1/2 pin simulated results.
//!
//! Two rows land in `BENCH_simspeed.json`:
//!
//! * `callout_churn` — schedule/cancel/expire mix against 100k pending
//!   callouts, measured on the hierarchical timing wheel *and* on the
//!   retained `BTreeMap` reference implementation, with the live
//!   speedup ratio. CI gates on `speedup_vs_btree >= 10`.
//! * `event_churn` — schedule/cancel/pop mix against 100k live events
//!   in the slab-backed [`ksim::EventQueue`].
//!
//! End-to-end host speed is perfbench's per-workload `host_us_per_op`,
//! which keeps fixture setup out of the data-path number.
//!
//! `meta.baseline` records the same loops measured on the pre-refactor
//! tree (BTreeMap callout, non-slab event queue) so the committed
//! artifact documents the before/after trajectory. Unlike
//! the `BENCH_table*` artifacts these numbers are wall-clock and host-
//! dependent, so the file is a pinned snapshot, not byte-reproducible.

use bench::simspeed;
use bench::{bench_doc, write_table};
use ksim::Json;

const PENDING: usize = 100_000;

fn rate_row(name: &str, pending: usize, r: &simspeed::Rate) -> Json {
    Json::obj()
        .with("bench", Json::Str(name.into()))
        .with("pending", Json::Num(pending as f64))
        .with("ops", Json::Num(r.ops as f64))
        .with("secs", Json::Num(r.secs))
        .with("ops_per_sec", Json::Num(r.ops_per_sec()))
}

fn main() {
    // Callout churn: wheel vs the retained BTreeMap reference, both
    // measured live on this host so the ratio is apples-to-apples.
    let wheel = simspeed::callout_churn_wheel(PENDING, 100_000);
    let btree = simspeed::callout_churn_btree(PENDING, 3_000);
    let speedup = wheel.ops_per_sec() / btree.ops_per_sec();
    println!(
        "callout_churn: wheel {:.0} ops/sec, btree reference {:.0} ops/sec ({speedup:.1}x)",
        wheel.ops_per_sec(),
        btree.ops_per_sec()
    );

    let event = simspeed::event_churn(PENDING, 300_000);
    println!("event_churn: {:.0} ops/sec", event.ops_per_sec());

    let rows = Json::Arr(vec![
        rate_row("callout_churn", PENDING, &wheel)
            .with("reference_ops_per_sec", Json::Num(btree.ops_per_sec()))
            .with("speedup_vs_btree", Json::Num(speedup)),
        rate_row("event_churn", PENDING, &event),
    ]);

    // The same loops measured on the pre-refactor tree (BTreeMap
    // callout, non-slab event queue) on the host that produced the
    // committed artifact — the "before" column of the speedup
    // trajectory.
    let baseline = Json::obj()
        .with("commit", Json::Str("33ac9d6".into()))
        .with("callout_churn_ops_per_sec", Json::Num(87_053.0))
        .with("event_churn_ops_per_sec", Json::Num(8_158_304.0));

    let doc = bench_doc("simspeed").with("rows", rows).with(
        "meta",
        Json::obj().with("baseline", baseline).with(
            "note",
            Json::Str("wall-clock host rates; snapshot artifact, not byte-reproducible".into()),
        ),
    );
    write_table("simspeed", &doc);
}
