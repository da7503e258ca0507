//! Property test: the store's incremental tail reader agrees with a
//! full parse.
//!
//! A long-lived [`Store`] handle parses only what was appended since
//! its last load. After every event of a random history — whole
//! appends, torn and short writes, re-appends glued onto a torn tail,
//! duplicate lines, appends through a second handle, and the file
//! deleted or recreated shorter — each long-lived handle must return
//! exactly what a fresh handle's full parse returns: the same records
//! in the same order, the same `latest()` winners and the same
//! `corrupt_lines`. One long-lived handle reads through an I/O seam
//! that implements only `read_file`, so the default `read_from` body is
//! held to the same contract as the seeking one. The fresh parse itself
//! is held to the plain line loop the store used before it read
//! incrementally, so the on-disk semantics cannot drift either.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rop_harness::{RealIo, Record, Status, Store, StoreContents, StoreIo};
use rop_sim_system::metrics::RunMetrics;
use rop_stats::Json;

fn tmp(tag: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rop-proptest-tail-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Store I/O with only the two required methods: reads take the
/// trait's default `read_from`.
struct ReadFileOnly;

impl StoreIo for ReadFileOnly {
    fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
        RealIo.read_file(path)
    }

    fn append_line(&self, path: &Path, line: &str) -> Result<(), String> {
        RealIo.append_line(path, line)
    }
}

fn metrics(ipc_milli: u64) -> RunMetrics {
    let j = Json::parse(&format!(
        r#"{{"system":"Prop","cores":[{{"benchmark":"lbm","instructions":100,"finish_cycle":50,"ipc":{},"llc_hits":1,"read_misses":2,"stall_cycles":3}}],"total_cycles":50,"energy":{{"act_pre_nj":0,"read_nj":0,"write_nj":0,"refresh_nj":0,"background_nj":0,"sram_nj":0}},"refreshes":0,"sram_hit_rate":0,"sram_lookups":0,"prefetches":0,"analysis":[],"row_hit_rate":0,"avg_read_latency":0,"hit_cycle_cap":false}}"#,
        ipc_milli as f64 / 1000.0
    ))
    .expect("metrics template parses");
    RunMetrics::from_json(&j).expect("metrics template decodes")
}

/// A record over a handful of job ids, so duplicates and the
/// `(epoch, worker)` resolution in `latest()` both come into play.
fn record() -> impl Strategy<Value = Record> {
    (0u8..4, any::<bool>(), 0u64..1000, 0u64..3, 0usize..3).prop_map(
        |(job, ok, payload, epoch, worker)| Record {
            job: format!("{job:016x}"),
            label: format!("prop/job-{job}"),
            status: if ok { Status::Ok } else { Status::Failed },
            attempts: 1,
            panic_msg: (!ok).then(|| format!("boom {payload}")),
            ts: payload,
            metrics: ok.then(|| metrics(payload)),
            epoch,
            worker: ["", "w1", "w2"][worker].to_string(),
        },
    )
}

#[derive(Debug, Clone)]
enum Event {
    /// A whole record through the long-lived handle.
    Append(Record),
    /// A whole record through a second long-lived handle on the path.
    AppendViaPeer(Record),
    /// A prefix of a record's line with no newline: a crash mid-write.
    Torn(Record, usize),
    /// The whole line but its newline: the tail still decodes.
    Unterminated(Record),
    /// The line without its last four bytes, newline included, as a
    /// silently short write leaves it.
    Short(Record),
    /// The same line appended twice.
    Duplicate(Record),
    /// The file deleted.
    Delete,
    /// The file deleted and recreated, shorter than what the handles
    /// consumed, holding these records.
    Recreate(Vec<Record>),
}

/// Whole appends are listed twice, so histories mostly grow and the
/// rarer damage events land on files with something to damage.
fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        record().prop_map(Event::Append),
        record().prop_map(Event::Append),
        record().prop_map(Event::AppendViaPeer),
        (record(), any::<usize>()).prop_map(|(r, c)| Event::Torn(r, c)),
        record().prop_map(Event::Unterminated),
        record().prop_map(Event::Short),
        record().prop_map(Event::Duplicate),
        Just(Event::Delete),
        proptest::collection::vec(record(), 0..3).prop_map(Event::Recreate),
    ]
}

fn line(rec: &Record) -> String {
    let mut l = rec.to_json().render();
    l.push('\n');
    l
}

fn append_raw(path: &Path, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open for raw append");
    f.write_all(bytes).expect("raw append");
}

fn apply(event: &Event, path: &Path, store: &Store, peer: &Store) {
    match event {
        Event::Append(r) => store.append(r).expect("append"),
        Event::AppendViaPeer(r) => peer.append(r).expect("peer append"),
        Event::Torn(r, cut) => {
            let l = line(r);
            append_raw(path, &l.as_bytes()[..1 + cut % (l.len() - 1)]);
        }
        Event::Unterminated(r) => append_raw(path, r.to_json().render().as_bytes()),
        Event::Short(r) => {
            let l = line(r);
            append_raw(path, &l.as_bytes()[..l.len() - 4]);
        }
        Event::Duplicate(r) => {
            store.append(r).expect("append");
            store.append(r).expect("append");
        }
        Event::Delete => {
            let _ = std::fs::remove_file(path);
        }
        Event::Recreate(recs) => {
            // The handles have consumed every complete line; the new
            // file must be shorter than that to be a legal rewrite.
            let old = std::fs::read(path).unwrap_or_default();
            let consumed = old.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let mut text = String::new();
            for r in recs {
                if text.len() + line(r).len() < consumed {
                    text.push_str(&line(r));
                }
            }
            let _ = std::fs::remove_file(path);
            std::fs::write(path, text).expect("recreate");
        }
    }
}

/// The whole-file line loop: every non-blank line, the unterminated
/// tail included, is one record or one corrupt line.
fn line_loop(path: &Path) -> StoreContents {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut records = Vec::new();
    let mut corrupt_lines = 0;
    for l in text.lines().filter(|l| !l.trim().is_empty()) {
        match Json::parse(l).and_then(|j| Record::from_json(&j)) {
            Ok(r) => records.push(r),
            Err(_) => corrupt_lines += 1,
        }
    }
    StoreContents {
        records: Arc::new(records),
        corrupt_lines,
    }
}

/// Everything a load exposes, rendered to comparable text.
fn view(c: &StoreContents) -> (Vec<String>, BTreeMap<String, String>, usize) {
    let records = c.records.iter().map(|r| r.to_json().render()).collect();
    let latest = c
        .latest()
        .into_iter()
        .map(|(job, r)| (job.to_string(), r.to_json().render()))
        .collect();
    (records, latest, c.corrupt_lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_load_matches_a_full_parse(
        events in proptest::collection::vec(event(), 1..24),
        tag in any::<u64>(),
    ) {
        let path = tmp(tag);
        let store = Store::open(&path);
        let peer = Store::open(&path);
        let default_io = Store::with_io(&path, Arc::new(ReadFileOnly));
        for (step, ev) in events.iter().enumerate() {
            apply(ev, &path, &store, &peer);
            let want = view(&Store::open(&path).load().unwrap());
            prop_assert_eq!(&want, &view(&line_loop(&path)), "full parse after step {}: {:?}", step, ev);
            for (name, handle) in [("store", &store), ("peer", &peer), ("default-io", &default_io)] {
                let got = view(&handle.load().unwrap());
                prop_assert_eq!(&got, &want, "{} diverged after step {}: {:?}", name, step, ev);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
