//! Trace files are untrusted input: `entmatcher trace --file` parses
//! whatever it is given. This property generates trace documents, corrupts
//! them (truncation, flipped bytes, fields of the wrong type, broken parent
//! links, non-finite numbers), and requires that parsing returns `Ok` or
//! `Err` without panicking, and that on `Ok` the tree render, the Chrome
//! export and both profile folds return without panicking or looping.

use entmatcher_support::json::{self, Json};
use entmatcher_support::prop::{check, Config, Failed, Gen};
use entmatcher_support::rng::Rng;
use entmatcher_support::telemetry::chrome::to_chrome_string;
use entmatcher_support::telemetry::profile::{fold, to_folded, Weight};
use entmatcher_support::telemetry::{
    Counter, Gauge, Histogram, SpanRecord, Trace, TRACE_VERSION, UNDERFLOW_BUCKET,
};
use entmatcher_support::{prop_assert, prop_assert_eq};

const NAMES: &[&str] = &[
    "pipeline",
    "similarity",
    "serve.batch",
    "a;b c",
    "quote\"back\\slash",
    "line\nbreak\u{1}",
    "é✓😀",
    "",
];

fn gen_trace(g: &mut Gen) -> Trace {
    let n = g.len_in(0, 60);
    let spans = (0..n as u64)
        .map(|i| {
            let id = i + 1;
            // Mostly well-formed parents (none, or an earlier span).
            let parent = if i == 0 || g.gen_bool(0.3) {
                None
            } else {
                Some(g.gen_range(1..id))
            };
            SpanRecord {
                id,
                parent,
                name: g.choose(NAMES).to_string(),
                start_ns: g.gen_range(0..5_000u64),
                duration_ns: g.gen_range(0..5_000_000u64),
                bytes: g.gen_range(0..1u64 << 40),
                tid: g.gen_range(1..4u64),
                req: g.gen_range(0..3u64),
                heap_allocated: g.gen_range(0..1u64 << 40),
                heap_live_peak: g.gen_range(0..1u64 << 40),
            }
        })
        .collect();
    let counters = (0..g.len_in(0, 4))
        .map(|i| Counter {
            name: format!("c{i}"),
            // JSON numbers are f64: integers past 2^53 do not read back.
            value: g.gen_range(0..1u64 << 53),
        })
        .collect();
    let gauges = (0..g.len_in(0, 4))
        .map(|i| Gauge {
            name: format!("g{i}"),
            value: g.gen_range(-1e9..1e9),
        })
        .collect();
    let histograms = (0..g.len_in(0, 4))
        .map(|i| {
            let min: f64 = g.gen_range(-10.0..10.0);
            Histogram {
                name: format!("h{i}"),
                count: g.gen_range(0..100u64),
                finite_count: g.gen_range(0..100u64),
                sum: g.gen_range(-1e6..1e6),
                min,
                max: min + g.gen_range(0.0..10.0),
                buckets: (0..g.len_in(0, 6))
                    .map(|_| {
                        let b = if g.gen_bool(0.1) {
                            UNDERFLOW_BUCKET
                        } else {
                            g.gen_range(-40..40i32)
                        };
                        (b, g.gen_range(0..50u64))
                    })
                    .collect(),
            }
        })
        .collect();
    Trace {
        version: TRACE_VERSION,
        spans,
        counters,
        gauges,
        histograms,
    }
}

/// Breaks the parent links of a well-typed trace: a span made its own
/// parent, a parent that names no span, or an id shared with another span.
fn break_links(g: &mut Gen, trace: &mut Trace) {
    let n = trace.spans.len();
    if n == 0 {
        return;
    }
    for _ in 0..g.gen_range(1..4usize) {
        let i = g.gen_range(0..n);
        match g.gen_range(0..4u32) {
            0 => trace.spans[i].parent = Some(trace.spans[i].id),
            1 => trace.spans[i].parent = Some(n as u64 + g.gen_range(1..1000u64)),
            2 => trace.spans[i].id = trace.spans[g.gen_range(0..n)].id,
            _ => {
                // A later span as parent: with ids shared, this can close
                // a cycle.
                let j = g.gen_range(0..n);
                trace.spans[i].parent = Some(trace.spans[j].id);
            }
        }
    }
}

/// Every path (child positions, for arrays and objects alike) to a value
/// below the root of `v`.
fn paths(v: &Json, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match v {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(map) => map.iter().map(|(_, item)| item).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn get<'a>(v: &'a Json, path: &[usize]) -> &'a Json {
    path.iter().fold(v, |v, &i| match v {
        Json::Arr(items) => &items[i],
        Json::Obj(map) => map.iter().nth(i).expect("path from this document").1,
        _ => unreachable!("path from this document"),
    })
}

/// `v` with the value at `path` replaced by `new`.
fn replace(v: &Json, path: &[usize], new: Json) -> Json {
    let Some((&i, rest)) = path.split_first() else {
        return new;
    };
    match v {
        Json::Arr(items) => {
            let mut items = items.clone();
            items[i] = replace(&items[i], rest, new);
            Json::Arr(items)
        }
        Json::Obj(map) => {
            let (key, child) = map.iter().nth(i).expect("path from this document");
            let mut map = map.clone();
            map.insert(key, replace(child, rest, new));
            Json::Obj(map)
        }
        _ => unreachable!("path from this document"),
    }
}

/// A placeholder string swapped for a bare number token after
/// serialization, since the writer turns non-finite numbers into `null`.
const TOKEN: &str = "@@NUMBER@@";

/// Replaces a random value of `doc` with a value of another type or, when
/// `non_finite` is set, a random number with an out-of-range token
/// (`1e999` parses as infinity); returns the document text.
fn retype(g: &mut Gen, doc: &Json, non_finite: bool) -> String {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    if non_finite {
        all.retain(|p| matches!(get(doc, p), Json::Num(_) | Json::Int(_)));
    }
    if all.is_empty() {
        return doc.dump();
    }
    let path = g.choose(&all).clone();
    let new = if non_finite {
        Json::Str(TOKEN.into())
    } else {
        match g.gen_range(0..10u32) {
            0 => Json::Null,
            1 => Json::Bool(true),
            2 => Json::Str("7".into()),
            3 => Json::Arr(vec![Json::Num(1.0)]),
            4 => Json::Obj(Default::default()),
            5 => Json::Num(-1.0),
            6 => Json::Num(0.5),
            7 => Json::Num(u64::MAX as f64),
            8 => Json::Int(i128::from(u64::MAX) + 1),
            _ => Json::Num(1e300),
        }
    };
    let token = *g.choose(&["1e999", "-1e999", "NaN", "-0", "1e-999"]);
    replace(doc, &path, new)
        .dump()
        .replacen(&format!("\"{TOKEN}\""), token, 1)
}

/// Truncates `text` at a random character boundary.
fn truncate(g: &mut Gen, text: &str) -> String {
    let mut cut = g.gen_range(0..=text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_owned()
}

/// Flips one low bit of a few ASCII bytes (the text stays valid UTF-8).
fn flip(g: &mut Gen, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    for _ in 0..g.gen_range(1..4usize) {
        let i = g.gen_range(0..bytes.len());
        if bytes[i].is_ascii() {
            bytes[i] ^= 1 << g.gen_range(0..7u32);
        }
    }
    String::from_utf8(bytes).expect("ASCII flips keep UTF-8 valid")
}

/// Runs every consumer of a parsed trace and checks what each must hold.
fn consume(trace: &Trace) -> Result<(), Failed> {
    let rendered = trace.render();
    // The header, at most one line per span (each is walked once), and
    // the metric tables.
    let metric_lines = trace.counters.len() + trace.gauges.len() + trace.histograms.len() + 3;
    let newlines_in_names: usize = trace
        .spans
        .iter()
        .map(|s| s.name.matches('\n').count())
        .sum();
    prop_assert!(
        rendered.lines().count() <= 1 + trace.spans.len() + newlines_in_names + metric_lines,
        "render repeated spans:\n{rendered}"
    );
    let chrome = to_chrome_string(trace);
    prop_assert!(Json::parse(&chrome).is_ok(), "chrome export is not JSON");
    for weight in [Weight::Micros, Weight::HeapBytes] {
        let stacks = fold(trace, weight);
        prop_assert!(stacks.len() <= trace.spans.len());
        prop_assert!(stacks.values().all(|&w| w > 0));
        let _ = to_folded(&stacks);
    }
    Ok(())
}

/// Parses `text` and, on `Ok`, runs every consumer; a panic anywhere is a
/// failure the harness can report with its seed (the panic hook has
/// already printed the message).
fn survives(text: &str) -> Result<(), Failed> {
    std::panic::catch_unwind(|| match json::from_str::<Trace>(text) {
        Ok(trace) => consume(&trace),
        Err(_) => Ok(()),
    })
    .unwrap_or_else(|_| Err(Failed::new(format!("panicked on input:\n{text}"))))
}

#[test]
fn corrupted_trace_documents_never_panic_or_loop() {
    check("corrupted_trace_documents", Config::with_cases(256), |g| {
        let mut trace = gen_trace(g);
        let text = json::to_string(&trace);
        // The uncorrupted document is read back exactly.
        prop_assert_eq!(json::from_str::<Trace>(&text).ok(), Some(trace.clone()));
        survives(&text)?;
        let corrupted = match g.gen_range(0..5u32) {
            0 => truncate(g, &text),
            1 => flip(g, &text),
            2 => retype(g, &Json::parse(&text).expect("generated JSON"), false),
            3 => retype(g, &Json::parse(&text).expect("generated JSON"), true),
            _ => {
                break_links(g, &mut trace);
                json::to_string(&trace)
            }
        };
        survives(&corrupted)
    });
}

#[test]
fn broken_parent_links_still_render_and_fold() {
    // Deterministic companions to the property: each malformed shape
    // parses, and every consumer returns.
    let span = |id: u64, parent: Option<u64>| {
        format!(
            r#"{{"id":{id},"parent":{},"name":"s{id}","start_ns":0,"duration_ns":5000,
               "bytes":0,"tid":1,"req":0,"heap_allocated":64,"heap_live_peak":0}}"#,
            parent.map_or("null".to_owned(), |p| p.to_string())
        )
    };
    let doc = |spans: &[String]| {
        format!(
            r#"{{"version":{TRACE_VERSION},"spans":[{}],"counters":[],"gauges":[],"histograms":[]}}"#,
            spans.join(",")
        )
    };
    let shapes = [
        vec![span(1, Some(1))],
        vec![span(1, None), span(2, Some(99))],
        vec![span(1, None), span(1, Some(1)), span(2, Some(1))],
        vec![span(1, Some(2)), span(2, Some(1))],
        // A deep chain: the walks are iterative, so depth cannot overflow
        // the stack.
        (1..=3_000u64)
            .map(|i| span(i, (i > 1).then(|| i - 1)))
            .collect(),
    ];
    for spans in shapes {
        let text = doc(&spans);
        let trace = json::from_str::<Trace>(&text).expect("well-typed document");
        if let Err(f) = consume(&trace) {
            panic!("{}", f.message);
        }
    }
    // A histogram whose min exceeds its max renders instead of panicking.
    let text = r#"{"version":4,"spans":[],"counters":[],"gauges":[],"histograms":[
        {"name":"h","count":2,"finite_count":2,"sum":1,"min":5,"max":1,"buckets":[[0,2]]}]}"#;
    let mut trace = json::from_str::<Trace>(text).unwrap();
    assert!(trace.render().contains("h: n=2"));
    // JSON cannot spell NaN, but a trace built in memory can carry it.
    trace.histograms[0].min = f64::NAN;
    trace.histograms[0].max = f64::INFINITY;
    trace.histograms[0].sum = f64::NEG_INFINITY;
    trace.gauges.push(Gauge {
        name: "g".into(),
        value: f64::NAN,
    });
    if let Err(f) = consume(&trace) {
        panic!("{}", f.message);
    }
}
