//! Runs the design-choice ablations (replication ordering, clock
//! precision spectrum, mapping residency, packing window, open loop).

use bench::artifact;
use bench::common::Scale;
use obskit::Json;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running ablations at {scale:?} scale ...\n");
    let replication = bench::ablations::run_replication(scale);
    println!();
    let clocks = bench::ablations::run_clocks(scale);
    println!();
    let dftl = bench::ablations::run_dftl(scale);
    println!();
    let packing = bench::ablations::run_packing(scale);
    println!();
    let open_loop = bench::ablations::run_open_loop(scale);
    artifact::maybe_write(
        "ablations",
        scale,
        Json::obj()
            .field("replication", replication)
            .field("clocks", clocks)
            .field("dftl", dftl)
            .field("packing", packing)
            .field("open_loop", open_loop),
    );
    bench::common::maybe_dump_trace();
}
