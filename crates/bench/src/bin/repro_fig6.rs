//! Regenerates Figure 6 (abort rate vs clients, SFTL vs MFTL, zero skew).

use bench::common::Scale;
use bench::fig6;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running Figure 6 at {scale:?} scale ...");
    let cfg = fig6::Fig6Config::for_scale(scale);
    let points = fig6::run(&cfg);
    fig6::print(&cfg, &points);
    bench::artifact::maybe_write("fig6", scale, fig6::to_json(&cfg, &points));
    bench::common::maybe_dump_trace();
}
