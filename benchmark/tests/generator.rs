//! The script generator: the same seed gives the same inputs, another seed
//! gives other inputs, and every script has the shape its mix promises.

use std::rc::Rc;

use benchmark::gen::{Script, ScriptGen};
use benchmark::workloads::{Workload, NAMES};
use simkit::rng::Zipf;

fn scripts(w: &Workload, seed: u64, instance: u32, n: usize) -> Vec<Script> {
    let zipf = Rc::new(Zipf::new(w.keys as usize, w.zipf_alpha));
    let mut gen = ScriptGen::new(Rc::new(w.mix.clone()), zipf, seed, instance);
    (0..n).map(|_| gen.next_script()).collect()
}

#[test]
fn same_seed_same_scripts() {
    for name in NAMES {
        let w = Workload::by_name(name).unwrap();
        assert_eq!(scripts(&w, 42, 3, 500), scripts(&w, 42, 3, 500), "{name}");
    }
}

#[test]
fn seed_and_instance_both_steer_the_stream() {
    let w = Workload::by_name("write_churn").unwrap();
    let base = scripts(&w, 42, 0, 200);
    assert_ne!(base, scripts(&w, 43, 0, 200), "seed must change the inputs");
    assert_ne!(
        base,
        scripts(&w, 42, 1, 200),
        "instances must not share a stream"
    );
    // Neighbouring seeds and instances must not be shifted copies either.
    assert_ne!(base[1..], scripts(&w, 43, 0, 200)[..199]);
    assert_ne!(scripts(&w, 42, 1, 200), scripts(&w, 43, 0, 200));
}

#[test]
fn scripts_have_the_shape_of_their_mix() {
    for name in NAMES {
        let w = Workload::by_name(name).unwrap();
        let all = scripts(&w, 7, 0, 2_000);
        let mut read_only = 0;
        for s in &all {
            let mut keys: Vec<u64> = s.reads.iter().chain(&s.writes).copied().collect();
            assert!(keys.iter().all(|&k| k < w.keys), "{name}: key out of range");
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n, "{name}: a key repeats inside one script");
            let fits = w.mix.types().iter().any(|t| {
                t.puts as usize == s.writes.len()
                    && match t.gets {
                        retwis::mix::GetCount::Fixed(g) => g as usize == s.reads.len(),
                        retwis::mix::GetCount::Uniform(lo, hi) => {
                            (lo as usize..=hi as usize).contains(&s.reads.len())
                        }
                    }
            });
            assert!(fits, "{name}: {s:?} matches no transaction type");
            read_only += s.writes.is_empty() as usize;
        }
        let share = read_only as f64 / all.len() as f64;
        assert!(
            (share - w.mix.read_only_fraction()).abs() < 0.04,
            "{name}: read-only share {share}"
        );
    }
}

#[test]
fn zipf_skew_shows_in_the_keys() {
    // Rank 0 is the hottest key: read_hot (α 0.99, 8 000 keys) must draw it
    // far more often than retwis_mix (α 0.6, 240 000 keys).
    let hits = |name: &str| {
        let w = Workload::by_name(name).unwrap();
        scripts(&w, 1, 0, 3_000)
            .iter()
            .filter(|s| s.reads.contains(&0) || s.writes.contains(&0))
            .count()
    };
    assert!(hits("read_hot") > 10 * hits("retwis_mix").max(1));
}
