//! Regenerates Figure 7 (abort rate vs contention, PTP vs NTP, by backend).

use bench::common::Scale;
use bench::fig7;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running Figure 7 at {scale:?} scale ...");
    let cfg = fig7::Fig7Config::for_scale(scale);
    let points = fig7::run(&cfg);
    fig7::print(&cfg, &points);
    bench::artifact::maybe_write("fig7", scale, fig7::to_json(&cfg, &points));
    bench::common::maybe_dump_trace();
}
