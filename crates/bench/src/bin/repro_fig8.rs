//! Regenerates Figure 8 (latency vs throughput, with/without local validation).

use bench::common::Scale;
use bench::fig8;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running Figure 8 at {scale:?} scale ...");
    let cfg = fig8::Fig8Config::for_scale(scale);
    let points = fig8::run(&cfg);
    fig8::print(&cfg, &points);
    bench::artifact::maybe_write("fig8", scale, fig8::to_json(&cfg, &points));
    bench::common::maybe_dump_trace();
}
