//! Regenerates Figure 9 (MILANA vs Centiman local validation).

use bench::common::Scale;
use bench::fig9;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running Figure 9 at {scale:?} scale ...");
    let cfg = fig9::Fig9Config::for_scale(scale);
    let points = fig9::run(&cfg);
    fig9::print(&cfg, &points);
    bench::artifact::maybe_write("fig9", scale, fig9::to_json(&cfg, &points));
    bench::common::maybe_dump_trace();
}
