//! The benchmark's inputs are a pure function of `--seed`: the same seed
//! gives a byte-identical request stream, another seed a different one.

use polyflow_perfbench::stream::{self, hot_cells, hot_line, HotStream};
use polyflow_perfbench::{END_TO_END, PER_LAYER};

/// The first `hot` requests each load client of a run would send.
fn hot_stream(seed: u64) -> String {
    let cells = hot_cells();
    let mut out = String::new();
    for client in 0..2 {
        for key in HotStream::new(seed, client, cells.len()).take(200) {
            let (w, c) = cells[key];
            out.push_str(&hot_line(w, c));
            out.push('\n');
        }
    }
    out
}

/// The first `upload` requests each load client of a run would send,
/// with the programs' names (which embed the seed) taken out, so only
/// the generated programs and policies are compared.
fn upload_stream(seed: u64) -> String {
    let mut out = String::new();
    for client in 0..2 {
        for index in 0..24 {
            let up = stream::upload(seed, client, index, "");
            out.push_str(&up.line.replacen(&up.name, "", 1));
            out.push('\n');
        }
    }
    out
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for stream in [hot_stream, upload_stream] {
        let a = stream(42);
        assert_eq!(a, stream(42));
        assert_ne!(a, stream(43));
    }
}

#[test]
fn hot_decks_cover_every_cell_once() {
    let cells = hot_cells().len();
    assert_eq!(cells, 84);
    let mut deck: Vec<usize> = HotStream::new(7, 0, cells).take(cells).collect();
    deck.sort_unstable();
    assert_eq!(deck, (0..cells).collect::<Vec<_>>());
}

#[test]
fn uploads_are_distinct_and_cycle_over_buckets() {
    let ups: Vec<_> = (0..12).map(|i| stream::upload(5, 0, i, "")).collect();
    let names: std::collections::HashSet<_> = ups.iter().map(|u| &u.name).collect();
    assert_eq!(names.len(), ups.len());
    assert_eq!(ups[0].bucket, ups[6].bucket);
    assert_ne!(ups[0].bucket, ups[1].bucket);
    // A variant is the same program under another name.
    let r = stream::upload(5, 0, 3, "r");
    assert_eq!(r.cell, ups[3].cell);
    assert_eq!(
        r.line.replacen(&r.name, "", 1),
        ups[3].line.replacen(&ups[3].name, "", 1)
    );
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<(String, String)> {
        let body = spec
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| {
                let name = s[..s.find('"').unwrap()].to_string();
                let unit = s.split("\"unit\": \"").nth(1).unwrap();
                (name, unit[..unit.find('"').unwrap()].to_string())
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
}
