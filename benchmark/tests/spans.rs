//! Span self-time arithmetic: a span's duration minus the part of that
//! interval its child spans cover.

use benchmark::spans::{virtual_self_times, Span, SpanLog};

fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        txn: 0,
        name: "x",
        virtual_start_ns: start,
        virtual_end_ns: end,
        host_start_ns: 0,
        host_end_ns: 0,
    }
}

#[test]
fn sequential_children_leave_the_gaps() {
    // script [0,100] → attempt [0,100] → begin [0,0], get [0,30], get [30,70], commit [75,100]
    let spans = vec![
        span(1, 0, 0, 100),
        span(2, 1, 0, 100),
        span(3, 2, 0, 0),
        span(4, 2, 0, 30),
        span(5, 2, 30, 70),
        span(6, 2, 75, 100),
    ];
    assert_eq!(virtual_self_times(&spans), vec![0, 5, 0, 30, 40, 25]);
}

#[test]
fn overlapping_children_count_once_and_are_clipped() {
    // Children [10,40] and [30,60] overlap by 10; [90,130] sticks out by 30.
    let spans = vec![
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 60),
        span(4, 1, 90, 130),
    ];
    let own = virtual_self_times(&spans);
    assert_eq!(own[0], 100 - (50 + 10));
    assert_eq!(&own[1..], &[30, 30, 40]);
}

#[test]
fn retries_add_up_to_the_script() {
    // Two attempts back to back: the script has no time of its own, and the
    // self times of the whole tree sum to the script's duration.
    let spans = vec![
        span(1, 0, 0, 90),
        span(2, 1, 0, 40),
        span(3, 2, 5, 35),
        span(4, 1, 40, 90),
        span(5, 4, 40, 80),
    ];
    let own = virtual_self_times(&spans);
    assert_eq!(own[0], 0);
    assert_eq!(own.iter().sum::<u64>(), 90);
}

#[test]
fn log_assigns_ids_and_writes_one_object_per_line() {
    let mut log = SpanLog::default();
    let script = log.open("script", 0, 7, 100);
    let get = log.open("get", script, 7, 110);
    log.close(get, 150);
    log.close(script, 160);
    assert_eq!((script, get), (1, 2));
    let spans = log.spans();
    assert_eq!(spans[1].parent, script);
    assert_eq!(spans[1].virtual_end_ns - spans[1].virtual_start_ns, 40);
    assert!(spans[0].host_end_ns >= spans[1].host_end_ns);
    assert_eq!(virtual_self_times(spans), vec![20, 40]);

    let jsonl = log.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 2);
    for (line, name) in lines.iter().zip(["script", "get"]) {
        let doc = benchmark::json::parse(line).expect("each line is one JSON object");
        let field = |k| benchmark::json::get(&doc, k).unwrap_or_else(|| panic!("{k} missing"));
        assert_eq!(benchmark::json::as_str(field("name")), Some(name));
        assert_eq!(benchmark::json::as_f64(field("txn")), Some(7.0));
        for k in [
            "id",
            "parent",
            "virtual_start_ns",
            "virtual_end_ns",
            "host_start_ns",
            "host_end_ns",
        ] {
            field(k);
        }
    }
}
