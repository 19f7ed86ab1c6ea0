//! The benchmark's own checks, on short runs (`--quick`): the output
//! schema and metric names, `sim_` metrics that repeat exactly for a
//! seed, and correctness on other seeds.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["oltp_shared", "crash_restart", "epoch_lanes"];

/// A JSON value, enough of it to read the benchmark's output and
/// `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
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
            Json::Obj(kv) => {
                &kv.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
            }
            _ => panic!("{key}: not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
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
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            let len = match self.s[self.i] {
                b if b < 0x80 => 1,
                b if b >= 0xF0 => 4,
                b if b >= 0xE0 => 3,
                _ => 2,
            };
            out.push_str(std::str::from_utf8(&self.s[self.i..self.i + len]).expect("utf-8"));
            self.i += len;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
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
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

struct Run {
    code: i32,
    report: Json,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: too little output:\n{stdout}");
    Run {
        code: out.status.code().unwrap_or(-1),
        report: Parser::parse(lines[lines.len() - 2]),
        result: Parser::parse(lines[lines.len() - 1]),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    match spec.get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
            .collect(),
        _ => panic!("{section} is not a list"),
    }
}

fn metrics(result: &Json) -> Vec<(String, f64, String)> {
    match result.get("metrics") {
        Json::Obj(kv) => kv
            .iter()
            .map(|(name, m)| {
                assert_eq!(m.keys(), ["value", "unit"], "{name}");
                (name.clone(), m.get("value").num(), m.get("unit").str().to_string())
            })
            .collect(),
        _ => panic!("metrics is not an object"),
    }
}

#[test]
fn output_schema_and_metric_names() {
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let want = declared(section);
        for w in WORKLOADS {
            let r = run(w, 1, trace);
            assert_eq!(r.code, 0, "{w}: {:?}", r.report.get("errors"));
            assert_eq!(r.result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.result.get("correct"), &Json::Bool(true));
            assert!(r.result.get("attempted").num() >= 1.0);
            assert_eq!(r.result.get("failed").num(), 0.0);
            let got: Vec<(String, String)> =
                metrics(&r.result).into_iter().map(|(n, _, u)| (n, u)).collect();
            assert_eq!(got, want, "{w} trace={trace}");
            let host = r.report.get("host");
            assert!(host.get("nproc").num() >= 1.0);
            assert!(host.get("threads").num() >= 1.0);
            assert_eq!(host.get("traced"), &Json::Bool(trace));
            if !trace {
                for (name, value, _) in metrics(&r.result) {
                    assert!(value > 0.0, "{w}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn sim_metrics_repeat_exactly_for_a_seed() {
    for w in WORKLOADS {
        let sim = |r: Run| -> BTreeMap<String, f64> {
            metrics(&r.result)
                .into_iter()
                .filter(|(n, ..)| n.starts_with("sim_"))
                .map(|(n, v, _)| (n, v))
                .collect()
        };
        let (a, b) = (sim(run(w, 7, false)), sim(run(w, 7, false)));
        assert_eq!(a.len(), 3, "{w}: {a:?}");
        assert_eq!(a, b, "{w}");
    }
}

#[test]
fn other_seeds_pass_the_correctness_checks() {
    for w in WORKLOADS {
        for seed in [2, 0xdead_beef] {
            let r = run(w, seed, false);
            assert_eq!(r.code, 0, "{w} seed {seed}: {:?}", r.report.get("errors"));
            assert_eq!(r.result.get("correct"), &Json::Bool(true));
        }
    }
}
