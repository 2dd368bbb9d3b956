//! Runs every experiment reproduction in sequence.

use bench::artifact;
use bench::common::Scale;
use obskit::Json;

fn main() {
    bench::common::Args::parse(&[], &[]);
    let scale = Scale::from_env();
    eprintln!("running all reproductions at {scale:?} scale ...\n");
    let t1 = bench::table1::Table1Config::for_scale(scale);
    let t1_rows = bench::table1::run(&t1);
    bench::table1::print(&t1_rows);
    println!();
    let f6 = bench::fig6::Fig6Config::for_scale(scale);
    let f6_points = bench::fig6::run(&f6);
    bench::fig6::print(&f6, &f6_points);
    println!();
    let f7 = bench::fig7::Fig7Config::for_scale(scale);
    let f7_points = bench::fig7::run(&f7);
    bench::fig7::print(&f7, &f7_points);
    println!();
    let f8 = bench::fig8::Fig8Config::for_scale(scale);
    let f8_points = bench::fig8::run(&f8);
    bench::fig8::print(&f8, &f8_points);
    println!();
    let f9 = bench::fig9::Fig9Config::for_scale(scale);
    let f9_points = bench::fig9::run(&f9);
    bench::fig9::print(&f9, &f9_points);
    println!();
    let replication = bench::ablations::run_replication(scale);
    println!();
    let clocks = bench::ablations::run_clocks(scale);
    println!();
    let dftl = bench::ablations::run_dftl(scale);
    println!();
    let packing = bench::ablations::run_packing(scale);
    println!();
    let open_loop = bench::ablations::run_open_loop(scale);
    println!();
    let batch_cfg = bench::batch::BatchSweepConfig::for_scale(scale);
    let batch_points = bench::batch::run(&batch_cfg, 1);
    bench::batch::print(&batch_points);
    println!();
    let rb_run = bench::rebalance::run_once(scale, 1);
    let rb_campaign = bench::rebalance::run_fault_campaign(scale, 1);
    bench::rebalance::print(&rb_run, &rb_campaign);
    println!();
    let rs_cfg = bench::readscale::ReadScaleConfig::for_scale(scale);
    let rs_out = bench::readscale::run(&rs_cfg, 1);
    bench::readscale::print(&rs_out);
    println!();
    let rec_cfg = bench::recovery::RecoveryConfig::for_scale(scale);
    let rec_trials = bench::recovery::run(&rec_cfg);
    let rec_campaign = bench::recovery::run_powerfail_campaign(&rec_cfg);
    bench::recovery::print(&rec_cfg, &rec_trials, &rec_campaign);
    println!();
    let cf_cfg = bench::clockfault::ClockFaultConfig::for_scale(scale);
    let cf_sweep = bench::clockfault::run_sweep(&cf_cfg);
    let cf_degradation = bench::clockfault::run_degradation(&cf_cfg);
    let cf_campaign = bench::clockfault::run_fault_campaign(&cf_cfg);
    bench::clockfault::print(&cf_cfg, &cf_sweep, &cf_degradation, &cf_campaign);
    artifact::maybe_write(
        "all",
        scale,
        Json::obj()
            .field("table1", bench::table1::to_json(&t1_rows))
            .field("fig6", bench::fig6::to_json(&f6, &f6_points))
            .field("fig7", bench::fig7::to_json(&f7, &f7_points))
            .field("fig8", bench::fig8::to_json(&f8, &f8_points))
            .field("fig9", bench::fig9::to_json(&f9, &f9_points))
            .field(
                "ablations",
                Json::obj()
                    .field("replication", replication)
                    .field("clocks", clocks)
                    .field("dftl", dftl)
                    .field("packing", packing)
                    .field("open_loop", open_loop),
            )
            .field("batch", bench::batch::to_json(&batch_points, 1))
            .field(
                "rebalance",
                bench::rebalance::to_json(&rb_run, &rb_campaign, 1),
            )
            .field("readscale", bench::readscale::to_json(&rs_out))
            .field(
                "recovery",
                bench::recovery::to_json(&rec_cfg, &rec_trials, &rec_campaign),
            )
            .field(
                "clockfault",
                bench::clockfault::to_json(&cf_cfg, &cf_sweep, &cf_degradation, &cf_campaign),
            ),
    );
    bench::common::maybe_dump_trace();
}
