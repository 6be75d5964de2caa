//! Tests of the benchmark itself: seeded inputs, the result line against
//! `BENCHMARK.json`, layer accounting, and repeatable layer counts.

use perfbench::corpus::{Corpus, Workload};
use perfbench::metrics::{Kind, Report, DECLS};
use perfbench::{plan, serve};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Tracing state is process-wide and `cargo test` runs tests on parallel
/// threads: tests that plan hold this lock so a traced run only ever reads
/// its own spans.
static PLANNING: Mutex<()> = Mutex::new(());

/// A minimal JSON value, enough to read `BENCHMARK.json` and the result
/// line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&Json::Null)
            }
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `name → unit` of one list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn corpus_is_deterministic_per_seed() {
    for w in Workload::ALL {
        let a = Corpus::generate(w, 7, 1.0);
        let b = Corpus::generate(w, 7, 1.0);
        assert!(!a.instances.is_empty(), "{}", w.name());
        assert_eq!(a.digest().value(), b.digest().value(), "{}", w.name());
        assert!(a
            .instances
            .iter()
            .zip(&b.instances)
            .all(|(x, y)| x.spec == y.spec && x.label == y.label));
        let c = Corpus::generate(w, 8, 1.0);
        assert_ne!(
            a.digest().value(),
            c.digest().value(),
            "{}: seed does not change the inputs",
            w.name()
        );
    }
}

#[test]
fn serve_schedule_is_seeded() {
    let a = serve::schedule(3, 40, 2, 1.0, false);
    assert_eq!(a, serve::schedule(3, 40, 2, 1.0, false));
    assert_ne!(a, serve::schedule(4, 40, 2, 1.0, false));
    assert!(a.iter().all(|x| x.item < 40 && x.conn < 2));
    assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    // bursts: the same instance due on both connections at once
    let long = serve::schedule(3, 40, 2, 20.0, false);
    let bursts = long
        .windows(2)
        .filter(|w| w[0].due_ns == w[1].due_ns && w[0].item == w[1].item && w[0].conn != w[1].conn)
        .count();
    assert!(bursts > 0 && bursts < long.len() / 2, "{bursts} bursts in {}", long.len());
}

#[test]
fn spec_text_round_trips_through_the_parser() {
    let c = Corpus::generate(Workload::PlanCoarse, 1, 1.0);
    for inst in &c.instances {
        let p = sekitei_spec::parse_problem(&inst.spec).expect("generated spec parses");
        assert_eq!(sekitei_spec::print_problem(&p), inst.spec, "{}", inst.label);
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    for (kind, list) in [(Kind::EndToEnd, "end_to_end"), (Kind::PerLayer, "per_layer")] {
        let declared = declared(list);
        let mut report = Report { attempted: 3, ..Report::default() };
        for (i, d) in DECLS.iter().enumerate() {
            report.set(d.name, i as f64 + 0.5);
        }
        let line = Parser::parse(&report.json_line(kind));
        let keys: Vec<&str> = match &line {
            Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = line.get("metrics") else { panic!("metrics is not an object") };
        let printed: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(valid_name(name), "metric name {name:?}");
                assert!(matches!(m.get("value"), Json::Num(_)), "{name}");
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(
            printed, declared,
            "printed {list} metrics and units differ from BENCHMARK.json"
        );
    }
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// A quick planning corpus: the cheap Small grid instances and a few
/// small draws of `plan-coarse`.
fn quick_corpus() -> Corpus {
    let mut c = Corpus::generate(Workload::PlanCoarse, 5, 1.0);
    c.instances.retain(|i| {
        ["small-B", "small-C", "small-E"].contains(&i.label.as_str())
            || (i.label.contains("-C") && i.spec.len() < 6_000)
    });
    c.instances.truncate(6);
    assert!(c.instances.len() >= 4);
    c
}

#[test]
fn layer_self_times_fit_in_the_traced_wall() {
    let _serial = PLANNING.lock().unwrap_or_else(|e| e.into_inner());
    let report = plan::run(&quick_corpus(), true, 0, &mut || Ok(()));
    assert!(report.correct(), "{:?}", report.check_failures);
    let get =
        |name: &str| report.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect(name);
    let (blocking, wall) = (get("bench.blocking_self_ms"), get("bench.traced_wall_ms"));
    assert!(
        blocking > 0.0 && blocking <= wall,
        "blocking path {blocking} ms vs traced wall {wall} ms"
    );
    assert!(get("compile.ms") > 0.0 && get("planner.rg_nodes") > 0.0);
}

#[test]
fn same_seed_runs_repeat_layer_counts() {
    let _serial = PLANNING.lock().unwrap_or_else(|e| e.into_inner());
    let c = quick_corpus();
    let a = plan::run(&c, false, 0, &mut || Ok(()));
    let b = plan::run(&c, false, 0, &mut || Ok(()));
    assert!(a.correct() && b.correct(), "{:?} {:?}", a.check_failures, b.check_failures);
    assert!(a.counts_digest.is_some());
    assert_eq!(a.counts_digest, b.counts_digest);
}

#[test]
fn serve_replies_match_in_process_planning() {
    let _serial = PLANNING.lock().unwrap_or_else(|e| e.into_inner());
    let mut c = Corpus::generate(Workload::ServeMix, 2, 1.0);
    c.instances.retain(|i| i.label.starts_with("tiny-") || i.spec.len() < 5_000);
    c.instances.truncate(12);
    let live = serve::Live::start(&c, 2).expect("server starts");
    let report = serve::run(&c, &live, 1.0, true);
    live.stop().expect("server stops");
    assert!(report.correct(), "{:?}", report.check_failures);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    let hit = report.values.iter().find(|(n, _)| *n == "server.outcome_hit_ratio").map(|&(_, v)| v);
    assert!(hit.is_some_and(|h| h > 0.0), "{hit:?}");
}
