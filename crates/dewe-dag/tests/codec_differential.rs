//! Differential tests of the DAG text codec against its reference models
//! (`reference/mod.rs`).
//!
//! On every input the production parser and the reference parser must
//! either both accept, with equal workflows, or both reject; on every
//! workflow the production writers must emit the reference writers'
//! bytes. Inputs: the writer's output for random DAGs and for every
//! `dewe-montage` family; the same statements shuffled, case-mixed and
//! padded with Unicode whitespace; arbitrary token soup; and mutated
//! writer output.

mod reference;

use dewe_dag::{parse_workflow, write_dax, write_workflow, JobId, Workflow, WorkflowBuilder};
use dewe_montage::{
    random_layered, AdversarialConfig, AdversarialShape, CyberShakeConfig, EpigenomicsConfig,
    LigoConfig, MontageConfig, RandomDagConfig, SiphtConfig,
};
use proptest::prelude::*;
use reference::Shape;

/// splitmix64: a tiny deterministic generator for the test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Both parsers accept with equal workflows, or both reject.
fn check_parsers_agree(text: &str) -> Result<Option<Workflow>, TestCaseError> {
    match (parse_workflow(text), reference::parse_workflow(text)) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(Shape::of(&a), Shape::of(&b), "text:\n{}", text);
            Ok(Some(a))
        }
        (Err(_), Err(_)) => Ok(None),
        (a, b) => Err(TestCaseError::fail(format!(
            "parsers disagree: production {:?}, reference {:?}\ntext:\n{text}",
            a.map(|_| ()),
            b.map(|_| ())
        ))),
    }
}

/// Both writers agree byte for byte, and the text parses back to `wf`.
fn check_writers_agree(wf: &Workflow) -> Result<String, TestCaseError> {
    let text = write_workflow(wf);
    prop_assert_eq!(&text, &reference::write_workflow(wf));
    prop_assert_eq!(write_dax(wf), reference::write_dax(wf));
    Ok(text)
}

/// The full round: writers agree, both parsers accept the text, and the
/// parsed workflow is `wf` again.
fn check_round_trip(wf: &Workflow) -> Result<String, TestCaseError> {
    let text = check_writers_agree(wf)?;
    let parsed = check_parsers_agree(&text)?;
    let parsed = parsed.ok_or_else(|| TestCaseError::fail("writer output was rejected"))?;
    prop_assert_eq!(Shape::of(&parsed), Shape::of(wf));
    Ok(text)
}

const NAME_CHARS: [char; 10] = ['a', 'Z', '0', '_', '.', '-', '#', 'é', '漢', '9'];

fn name(rng: &mut Rng, prefix: &str, i: usize) -> String {
    let mut s = format!("{prefix}{i}_");
    for _ in 0..rng.below(3) {
        s.push(rng.pick(&NAME_CHARS));
    }
    s
}

/// A random valid workflow: files with producers and consumers, jobs with
/// cores and timeouts, data edges and explicit edges (some of which data
/// flow already implies), all between earlier and later jobs.
fn random_workflow(seed: u64, n_jobs: usize) -> Workflow {
    let mut rng = Rng(seed);
    let mut b = WorkflowBuilder::new(name(&mut rng, "wf", 0));
    let mut files = Vec::new();
    for i in 0..rng.below(4) {
        let size = rng.next() % 5_000_000;
        files.push(b.file(name(&mut rng, "in", i), size, true));
    }
    let mut jobs: Vec<JobId> = Vec::new();
    for i in 0..n_jobs {
        let inputs: Vec<_> =
            (0..rng.below(4)).filter(|_| !files.is_empty()).map(|_| rng.pick(&files)).collect();
        let outputs: Vec<_> = (0..rng.below(3))
            .map(|k| {
                let size = rng.next() % 100_000;
                b.file(name(&mut rng, &format!("f{i}_"), k), size, false)
            })
            .collect();
        let cpu = (rng.next() % 100_000) as f64 / [1.0, 7.0, 1000.0][rng.below(3)];
        let cores = if rng.chance(200) { 1 + rng.below(16) as u32 } else { 1 };
        let timeout = rng.chance(200).then(|| (1 + rng.next() % 900) as f64 / 3.0);
        let xform = format!("x{}", rng.below(4));
        let mut jb =
            b.job(name(&mut rng, "j", i), xform, cpu).inputs(inputs).outputs(outputs.clone());
        jb = jb.cores(cores);
        if let Some(t) = timeout {
            jb = jb.timeout_secs(t);
        }
        let j = jb.build();
        for _ in 0..rng.below(3) {
            if !jobs.is_empty() {
                b.edge(rng.pick(&jobs), j);
            }
        }
        jobs.push(j);
        files.extend(outputs);
    }
    b.finish().expect("edges and data flow only point forward")
}

/// Rewrite `text` statement by statement without changing its meaning:
/// shuffle the lines, mix the case of directives and keywords, pad and
/// separate tokens with assorted Unicode whitespace, and sprinkle
/// comments, blank lines and CRLF endings.
fn disguise(text: &str, rng: &mut Rng) -> String {
    const SPACE: [&str; 10] =
        [" ", "  ", "\t", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\u{b}", "\u{c}", "\r"];
    const KEYWORDS: [&str; 10] = [
        "WORKFLOW", "FILE", "JOB", "INPUT", "OUTPUT", "PARENT", "CHILD", "CPU", "CORES", "TIMEOUT",
    ];
    let mut lines: Vec<&str> = text.lines().collect();
    for i in (1..lines.len()).rev() {
        let k = rng.below(i + 1);
        lines.swap(i, k);
    }
    let mut out = String::new();
    for line in lines {
        if rng.chance(100) {
            out.push_str("# a comment\n\n");
        }
        out.push_str(if rng.chance(300) { rng.pick(&SPACE) } else { "" });
        for (i, tok) in line.split(' ').enumerate() {
            if i > 0 {
                out.push_str(rng.pick(&SPACE));
            }
            if KEYWORDS.contains(&tok) || tok == "INITIAL" {
                out.extend(tok.chars().map(|c| {
                    if rng.chance(500) {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                }));
            } else {
                out.push_str(tok);
            }
        }
        out.push_str(if rng.chance(300) { rng.pick(&SPACE) } else { "" });
        out.push_str(if rng.chance(200) { "\r\n" } else { "\n" });
    }
    out
}

/// Words arbitrary text is made of: directives and keywords in several
/// cases, a few names, and numbers the parsers must agree on (signs, NaN,
/// infinity, overflow).
const WORDS: &str = "WORKFLOW FILE file JOB Job INPUT OUTPUT output PARENT CHILD child CPU cpu \
    CORES TIMEOUT INITIAL initial BOGUS j0 j1 j2 f0 f1 f2 # 0 1 -1 +3 1.5 1e3 nan inf \
    4294967296 18446744073709551616 é";

/// The gaps between words, Unicode whitespace and line breaks included.
const GAPS: [&str; 8] = [" ", " ", "\t", "\u{a0}", "\u{2003}", "\n", "\n", "\r\n"];

fn word(rng: &mut Rng) -> &'static str {
    if rng.chance(400) {
        rng.pick(&GAPS)
    } else {
        let n = WORDS.split_whitespace().count();
        WORDS.split_whitespace().nth(rng.below(n)).expect("index below the word count")
    }
}

/// Statement shapes, one per line; `$j` is a job name, `$f` a file name,
/// `$k` a number.
const TEMPLATES: [&str; 9] = [
    "WORKFLOW $j",
    "FILE $f $k",
    "FILE $f $k INITIAL",
    "JOB $j x CPU $k",
    "JOB $j x CPU $k CORES $k TIMEOUT $k",
    "INPUT $j $f $f",
    "OUTPUT $j $f",
    "PARENT $j $j CHILD $j",
    "# $j",
];

/// Arbitrary text: either pure token soup, or lines of statement shapes
/// filled with random names and numbers whose tokens are now and then
/// replaced, dropped or followed by a stray word.
fn arbitrary_text(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.chance(300) {
        for _ in 0..rng.below(80) {
            out.push_str(word(rng));
        }
        return out;
    }
    const JOBS: [&str; 6] = ["j0", "j1", "j2", "j3", "J0", "CHILD"];
    const FILES: [&str; 5] = ["f0", "f1", "f2", "f3", "f#"];
    const NUMBERS: [&str; 8] = ["0", "1", "2", "-1", "+3", "1.5", "nan", "4294967296"];
    for _ in 0..rng.below(10) {
        for tok in rng.pick(&TEMPLATES).split(' ') {
            let tok = match tok {
                _ if rng.chance(40) => continue,
                _ if rng.chance(40) => word(rng),
                "$j" => rng.pick(&JOBS),
                "$f" => rng.pick(&FILES),
                "$k" => rng.pick(&NUMBERS),
                keyword => keyword,
            };
            out.push_str(tok);
            out.push_str(if rng.chance(100) { rng.pick(&GAPS) } else { " " });
        }
        out.push('\n');
    }
    out
}

/// Apply a few small edits to valid text: drop, repeat or swap lines,
/// drop or replace tokens, insert characters, truncate.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.below(lines.len());
        match rng.below(7) {
            0 => {
                lines.remove(i);
            }
            1 => {
                let line = lines[i].clone();
                lines.insert(rng.below(lines.len() + 1), line);
            }
            2 => {
                let k = rng.below(lines.len());
                lines.swap(i, k);
            }
            3 | 4 => {
                let mut toks: Vec<&str> = lines[i].split(' ').collect();
                let t = rng.below(toks.len());
                if rng.chance(500) {
                    toks.remove(t);
                } else {
                    toks[t] = word(rng);
                }
                lines[i] = toks.join(" ");
            }
            5 => {
                let mut at = rng.below(lines[i].len() + 1);
                while !lines[i].is_char_boundary(at) {
                    at -= 1;
                }
                let w = word(rng);
                lines[i].insert_str(at, w);
            }
            _ => lines.truncate(i),
        }
    }
    lines.join("\n")
}

/// One workflow of every generator family, at small scale.
fn families() -> Vec<Workflow> {
    let mut wfs = vec![
        MontageConfig::degree(0.5).build(),
        MontageConfig::degree(1.0).with_seed(7).with_blocking_job_cores(8).build(),
        MontageConfig::degree(2.0).with_seed(3).with_timeout_secs(450.0).build(),
        CyberShakeConfig::new(6).with_seed(2).build(),
        EpigenomicsConfig::new(3, 4).with_seed(5).build(),
        LigoConfig::new(3, 5).with_seed(9).build(),
        SiphtConfig::new(7).with_seed(4).build(),
        random_layered(&RandomDagConfig::default()),
        random_layered(&RandomDagConfig {
            layers: 7,
            width: 5,
            edge_probability: 0.6,
            ..RandomDagConfig::default()
        }),
    ];
    for shape in [
        AdversarialShape::WideFanOut { width: 40 },
        AdversarialShape::DeepChain { depth: 30 },
        AdversarialShape::DiamondStorm { storms: 4, width: 6 },
        AdversarialShape::FanInCliff { width: 40 },
    ] {
        wfs.push(AdversarialConfig::new(shape).with_seed(11).build());
    }
    wfs
}

#[test]
fn every_generator_family_round_trips_through_both_codecs() {
    for (i, wf) in families().iter().enumerate() {
        let text = check_round_trip(wf).unwrap_or_else(|e| panic!("{}: {e}", wf.name()));
        let mut rng = Rng(i as u64);
        let disguised = disguise(&text, &mut rng);
        check_parsers_agree(&disguised).unwrap_or_else(|e| panic!("{}: {e}", wf.name()));
        for _ in 0..8 {
            check_parsers_agree(&mutate(&text, &mut rng))
                .unwrap_or_else(|e| panic!("{}: {e}", wf.name()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Writer output for random DAGs: the writers agree byte for byte and
    /// both parsers give the workflow back.
    #[test]
    fn random_dags_round_trip(seed in any::<u64>(), n_jobs in 0usize..40) {
        check_round_trip(&random_workflow(seed, n_jobs))?;
    }

    /// Shuffled, case-mixed, whitespace-padded statements: both parsers
    /// accept them alike, and the writers agree on what they parse.
    #[test]
    fn disguised_statements_parse_alike(seed in any::<u64>(), n_jobs in 0usize..30) {
        let original = random_workflow(seed, n_jobs);
        let disguised = disguise(&write_workflow(&original), &mut Rng(!seed));
        let wf = check_parsers_agree(&disguised)?
            .ok_or_else(|| TestCaseError::fail(format!("rejected:\n{disguised}")))?;
        prop_assert_eq!(wf.name(), original.name());
        prop_assert_eq!(wf.job_count(), original.job_count());
        prop_assert_eq!(wf.file_count(), original.file_count());
        prop_assert_eq!(wf.edge_count(), original.edge_count());
        check_writers_agree(&wf)?;
    }

    /// Mutated writer output: both accept alike or both reject.
    #[test]
    fn mutated_text_parses_alike(seed in any::<u64>(), n_jobs in 1usize..20) {
        let text = write_workflow(&random_workflow(seed, n_jobs));
        let mut rng = Rng(seed ^ 0x5EED);
        for _ in 0..4 {
            if let Some(wf) = check_parsers_agree(&mutate(&text, &mut rng))? {
                check_writers_agree(&wf)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary text: both accept alike or both reject.
    #[test]
    fn arbitrary_text_parses_alike(seed in any::<u64>()) {
        let text = arbitrary_text(&mut Rng(seed));
        if let Some(wf) = check_parsers_agree(&text)? {
            check_writers_agree(&wf)?;
        }
    }
}
