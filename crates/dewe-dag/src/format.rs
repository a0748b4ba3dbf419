//! DAGMan-style plain-text workflow format.
//!
//! DEWE v2 (like Condor DAGMan, which Pegasus plans into) describes
//! workflows in a line-oriented text file living in the workflow folder on
//! the shared file system. This module implements a self-contained dialect:
//!
//! ```text
//! # comment
//! WORKFLOW m16_6deg
//! FILE raw_001.fits 2900000 INITIAL
//! FILE proj_001.fits 1600000
//! JOB mProjectPP_001 mProjectPP CPU 1.7
//! JOB mConcatFit mConcatFit CPU 110 TIMEOUT 900
//! JOB mBgModel mBgModel CPU 130 CORES 8
//! INPUT mProjectPP_001 raw_001.fits
//! OUTPUT mProjectPP_001 proj_001.fits
//! PARENT mProjectPP_001 CHILD mConcatFit
//! ```
//!
//! * `FILE name size [INITIAL]` — data artifact; `INITIAL` marks pre-staged
//!   inputs.
//! * `JOB name xform CPU secs [CORES n] [TIMEOUT secs]` — a task.
//! * `INPUT job file...` / `OUTPUT job file...` — data flow (implies edges).
//! * `PARENT a... CHILD b...` — explicit precedence (DAGMan syntax: full
//!   bipartite product of the two lists).
//!
//! Statements may appear in any order: wiring (`INPUT`, `OUTPUT`, `PARENT`)
//! may name jobs and files declared further down. Tokens split on Unicode
//! whitespace; directives and keywords match ASCII case-insensitively.
//! [`parse_workflow`] makes one pass and defers only the wiring lines;
//! [`write_workflow`] is linear in the size of the workflow. The two
//! round-trip (asserted by property tests).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::DagError;
use crate::file::FileSpec;
use crate::ids::{FileId, JobId};
use crate::job::JobSpec;
use crate::workflow::Workflow;

/// Parse a workflow from the text format.
pub fn parse_workflow(text: &str) -> Result<Workflow, DagError> {
    let mut name = "workflow";
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut files: Vec<FileSpec> = Vec::new();
    // Keyed with the default `RandomState`: names come from untrusted
    // submitters, and an unkeyed hasher would let them flood one bucket.
    let mut job_ids: HashMap<&str, JobId> = HashMap::new();
    let mut file_ids: HashMap<&str, FileId> = HashMap::new();
    let mut wiring: Vec<(usize, &str)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let mut toks = line.split_whitespace();
        let directive = toks.next().unwrap_or_default();
        if directive.eq_ignore_ascii_case("FILE") {
            let (Some(fname), Some(size), initial, None) =
                (toks.next(), toks.next(), toks.next(), toks.next())
            else {
                return Err(err(lineno, "FILE <name> <size_bytes> [INITIAL]"));
            };
            let size: u64 = size.parse().map_err(|_| err(lineno, &format!("bad size `{size}`")))?;
            let initial = match initial {
                None => false,
                Some(t) if t.eq_ignore_ascii_case("INITIAL") => true,
                Some(t) => return Err(err(lineno, &format!("unexpected token `{t}`"))),
            };
            if file_ids.insert(fname, FileId::from_index(files.len())).is_some() {
                return Err(DagError::DuplicateName(fname.to_string()));
            }
            files.push(FileSpec::new(fname, size, initial));
        } else if directive.eq_ignore_ascii_case("JOB") {
            let cpu_kw = |t: &&str| t.eq_ignore_ascii_case("CPU");
            let (Some(jname), Some(xform), Some(_), Some(cpu)) =
                (toks.next(), toks.next(), toks.next().filter(cpu_kw), toks.next())
            else {
                return Err(err(lineno, "JOB <name> <xform> CPU <secs> [CORES n] [TIMEOUT s]"));
            };
            let cpu_seconds: f64 =
                cpu.parse().map_err(|_| err(lineno, &format!("bad cpu seconds `{cpu}`")))?;
            let mut cores = 1;
            let mut timeout_secs = None;
            while let Some(opt) = toks.next() {
                let value = toks.next();
                if opt.eq_ignore_ascii_case("CORES") {
                    let v = value.and_then(|t| t.parse::<u32>().ok());
                    cores = v.ok_or_else(|| err(lineno, "CORES needs an integer"))?.max(1);
                } else if opt.eq_ignore_ascii_case("TIMEOUT") {
                    let v = value.and_then(|t| t.parse().ok());
                    timeout_secs = Some(v.ok_or_else(|| err(lineno, "TIMEOUT needs seconds"))?);
                } else {
                    let opt = opt.to_ascii_uppercase();
                    return Err(err(lineno, &format!("unexpected token `{opt}`")));
                }
            }
            if job_ids.insert(jname, JobId::from_index(jobs.len())).is_some() {
                return Err(DagError::DuplicateName(jname.to_string()));
            }
            jobs.push(JobSpec {
                name: jname.to_string(),
                xform: xform.to_string(),
                cpu_seconds,
                cores,
                inputs: Vec::new(),
                outputs: Vec::new(),
                timeout_secs,
            });
        } else if directive.eq_ignore_ascii_case("WORKFLOW") {
            let (Some(wname), None) = (toks.next(), toks.next()) else {
                return Err(err(lineno, "WORKFLOW takes exactly one name"));
            };
            name = wname;
        } else if ["INPUT", "OUTPUT", "PARENT"].iter().any(|d| directive.eq_ignore_ascii_case(d)) {
            wiring.push((lineno, line));
        } else {
            let directive = directive.to_ascii_uppercase();
            return Err(err(lineno, &format!("unknown directive `{directive}`")));
        }
    }

    // Wiring, now that every name is declared.
    let job_id = |t: &str| job_ids.get(t).copied().ok_or_else(|| DagError::UnknownName(t.into()));
    let file_id = |t: &str| file_ids.get(t).copied().ok_or_else(|| DagError::UnknownName(t.into()));
    let mut edges: Vec<(JobId, JobId)> = Vec::new();
    let mut linked: Vec<JobId> = Vec::new();
    for (lineno, line) in wiring {
        let mut toks = line.split_whitespace();
        let directive = toks.next().unwrap_or_default();
        if directive.eq_ignore_ascii_case("PARENT") {
            let Some(n_parents) = toks.clone().position(|t| t.eq_ignore_ascii_case("CHILD")) else {
                return Err(err(lineno, "PARENT ... CHILD ..."));
            };
            if n_parents == 0 || toks.clone().nth(n_parents + 1).is_none() {
                return Err(err(lineno, "PARENT needs parents and children"));
            }
            // Parents, then children, resolved in text order.
            linked.clear();
            for (i, t) in toks.enumerate() {
                if i != n_parents {
                    linked.push(job_id(t)?);
                }
            }
            let (parents, children) = linked.split_at(n_parents);
            for &p in parents {
                edges.extend(children.iter().map(|&c| (p, c)));
            }
        } else {
            let Some(job) = toks.next().filter(|_| toks.clone().next().is_some()) else {
                return Err(err(lineno, "INPUT/OUTPUT <job> <file>..."));
            };
            let spec = &mut jobs[job_id(job)?.index()];
            let list = if directive.eq_ignore_ascii_case("INPUT") {
                &mut spec.inputs
            } else {
                &mut spec.outputs
            };
            list.reserve(toks.clone().count());
            for t in toks {
                list.push(file_id(t)?);
            }
        }
    }
    Workflow::from_specs(name.to_string(), jobs, files, edges)
}

/// Serialize a workflow to the text format.
pub fn write_workflow(wf: &Workflow) -> String {
    let mut out = String::new();
    out.push_str("# generated by dewe-dag\nWORKFLOW ");
    out.push_str(wf.name());
    out.push('\n');
    for f in wf.files() {
        out.push_str("FILE ");
        out.push_str(&f.name);
        let _ = write!(out, " {}", f.size_bytes);
        if f.initial {
            out.push_str(" INITIAL");
        }
        out.push('\n');
    }
    for j in wf.jobs() {
        out.push_str("JOB ");
        out.push_str(&j.name);
        out.push(' ');
        out.push_str(&j.xform);
        let _ = write!(out, " CPU {}", j.cpu_seconds);
        if j.cores != 1 {
            let _ = write!(out, " CORES {}", j.cores);
        }
        if let Some(t) = j.timeout_secs {
            let _ = write!(out, " TIMEOUT {t}");
        }
        out.push('\n');
    }
    // Only edges not implied by data flow are stated, to keep files compact.
    let mut pending = wf.explicit_edges().into_iter().peekable();
    for (ji, j) in wf.jobs().iter().enumerate() {
        let jid = JobId::from_index(ji);
        for (keyword, list) in [("INPUT ", &j.inputs), ("OUTPUT ", &j.outputs)] {
            if !list.is_empty() {
                out.push_str(keyword);
                out.push_str(&j.name);
                for &f in list {
                    out.push(' ');
                    out.push_str(&wf.file(f).name);
                }
                out.push('\n');
            }
        }
        while let Some((_, c)) = pending.next_if(|&(p, _)| p == jid) {
            out.push_str("PARENT ");
            out.push_str(&j.name);
            out.push_str(" CHILD ");
            out.push_str(&wf.job(c).name);
            out.push('\n');
        }
    }
    out
}

fn err(line: usize, message: &str) -> DagError {
    DagError::Parse { line, message: message.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# sample montage fragment
WORKFLOW frag
FILE raw.fits 2900000 INITIAL
FILE proj.fits 1600000
FILE fit.tbl 4096
JOB mProjectPP_0 mProjectPP CPU 1.7
JOB mDiffFit_0 mDiffFit CPU 0.9 TIMEOUT 120
JOB mConcatFit mConcatFit CPU 110 CORES 4
INPUT mProjectPP_0 raw.fits
OUTPUT mProjectPP_0 proj.fits
INPUT mDiffFit_0 proj.fits
OUTPUT mDiffFit_0 fit.tbl
PARENT mDiffFit_0 CHILD mConcatFit
"#;

    #[test]
    fn parses_sample() {
        let wf = parse_workflow(SAMPLE).unwrap();
        assert_eq!(wf.name(), "frag");
        assert_eq!(wf.job_count(), 3);
        assert_eq!(wf.file_count(), 3);
        // data edge mProjectPP_0 -> mDiffFit_0 plus explicit edge -> 2 edges
        assert_eq!(wf.edge_count(), 2);
        let diff = wf.job_by_name("mDiffFit_0").unwrap();
        assert_eq!(wf.job(diff).timeout_secs, Some(120.0));
        let cat = wf.job_by_name("mConcatFit").unwrap();
        assert_eq!(wf.job(cat).cores, 4);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let wf = parse_workflow(SAMPLE).unwrap();
        let text = write_workflow(&wf);
        let wf2 = parse_workflow(&text).unwrap();
        assert_eq!(wf.job_count(), wf2.job_count());
        assert_eq!(wf.file_count(), wf2.file_count());
        assert_eq!(wf.edge_count(), wf2.edge_count());
        for (a, b) in wf.jobs().iter().zip(wf2.jobs()) {
            assert_eq!(a, b);
        }
        for (a, b) in wf.files().iter().zip(wf2.files()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn unknown_directive_errors_with_line() {
        let e = parse_workflow("BOGUS x").unwrap_err();
        match e {
            DagError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_job_in_parent_errors() {
        let e = parse_workflow("JOB a t CPU 1\nPARENT a CHILD nosuch").unwrap_err();
        assert!(matches!(e, DagError::UnknownName(_)));
    }

    #[test]
    fn unknown_file_in_input_errors() {
        let e = parse_workflow("JOB a t CPU 1\nINPUT a nosuch.fits").unwrap_err();
        assert!(matches!(e, DagError::UnknownName(_)));
    }

    #[test]
    fn bipartite_parent_child() {
        let text =
            "JOB a t CPU 1\nJOB b t CPU 1\nJOB c t CPU 1\nJOB d t CPU 1\nPARENT a b CHILD c d";
        let wf = parse_workflow(text).unwrap();
        assert_eq!(wf.edge_count(), 4);
    }

    #[test]
    fn bad_size_errors() {
        let e = parse_workflow("FILE f notanumber").unwrap_err();
        assert!(matches!(e, DagError::Parse { .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let wf = parse_workflow("# hi\n\n  \nJOB a t CPU 1\n").unwrap();
        assert_eq!(wf.job_count(), 1);
    }

    #[test]
    fn cycle_via_parent_statements_rejected() {
        let text = "JOB a t CPU 1\nJOB b t CPU 1\nPARENT a CHILD b\nPARENT b CHILD a";
        assert!(matches!(parse_workflow(text), Err(DagError::Cycle(_))));
    }
}
