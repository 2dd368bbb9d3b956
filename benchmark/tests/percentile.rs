//! The percentile rule: nearest rank, the sample count stated, and a
//! percentile supported only when ten samples lie beyond it.

use benchmark::stats::{median, min_max, percentile, samples_beyond, Digest};

#[test]
fn nearest_rank_on_a_known_series() {
    let v: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&v, 500).unwrap().value, 500);
    assert_eq!(percentile(&v, 990).unwrap().value, 990);
    assert_eq!(percentile(&v, 999).unwrap().value, 999);
    assert_eq!(percentile(&v, 1000).unwrap().value, 1000);
    assert_eq!(percentile(&[42], 999).unwrap().value, 42);
    assert!(percentile(&[], 500).is_none());
}

#[test]
fn p999_needs_ten_thousand_samples() {
    // 0.999 * 10_000 is 9990.000000000002 in floating point; the rank must
    // still be 9990, leaving exactly ten samples beyond it.
    assert_eq!(samples_beyond(10_000, 999), 10);
    assert_eq!(samples_beyond(9_999, 999), 9);
    let at = |n: u64, permille| percentile(&(0..n).collect::<Vec<_>>(), permille).unwrap();
    assert!(at(10_000, 999).supported);
    assert!(!at(9_999, 999).supported);
    assert!(at(1_000, 990).supported);
    assert!(!at(999, 990).supported);
    assert!(at(20, 500).supported);
    assert!(!at(19, 500).supported);
}

#[test]
fn sample_count_is_reported() {
    let p = percentile(&[5, 6, 7], 500).unwrap();
    assert_eq!((p.value, p.sample_count, p.supported), (6, 3, false));
}

#[test]
fn median_and_spread_of_repeats() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

#[test]
fn digest_sees_order_and_length() {
    let fold = |vs: &[u64]| {
        let mut d = Digest::default();
        d.push_all(vs);
        d.finish()
    };
    assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
    assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
    // Length-prefixed: moving a value between two slices changes the digest.
    let two = |a: &[u64], b: &[u64]| {
        let mut d = Digest::default();
        d.push_all(a);
        d.push_all(b);
        d.finish()
    };
    assert_ne!(two(&[1, 2], &[3]), two(&[1], &[2, 3]));
}
