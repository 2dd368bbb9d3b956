//! Regenerates Table 1 (single-SSD VFTL vs MFTL performance).

use bench::common::Scale;
use bench::table1;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running Table 1 at {scale:?} scale (REPRO_SCALE=full for more) ...");
    let cfg = table1::Table1Config::for_scale(scale);
    let rows = table1::run(&cfg);
    table1::print(&rows);
    bench::artifact::maybe_write("table1", scale, table1::to_json(&rows));
    bench::common::maybe_dump_trace();
}
