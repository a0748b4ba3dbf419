//! Reference models of the DAG text and DAX codecs: the straightforward
//! two-pass parser and the quadratic writers that production code
//! replaced. They define the accepted language and the output bytes, and
//! the differential tests hold the production codecs to them.

use std::collections::HashMap;
use std::fmt::Write;

use dewe_dag::{DagError, FileId, FileSpec, JobId, JobSpec, Workflow, WorkflowBuilder};

/// Parse the text format: every non-blank, non-comment line becomes a
/// token vector, then one pass reads the workflow name, one declares
/// files and jobs, one wires inputs, outputs and explicit edges.
pub fn parse_workflow(text: &str) -> Result<Workflow, DagError> {
    let mut name = String::from("workflow");
    let mut decls: Vec<(usize, Vec<&str>)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        decls.push((lineno + 1, toks));
    }

    // Pass 0: the workflow name (the last WORKFLOW line wins).
    for (line, toks) in &decls {
        if toks[0].eq_ignore_ascii_case("WORKFLOW") {
            if toks.len() != 2 {
                return Err(err(*line, "WORKFLOW takes exactly one name"));
            }
            name = toks[1].to_string();
        }
    }

    // Pass 1: FILE and JOB declarations. The first declaration of a name
    // wins its map entry; the builder rejects the duplicate at the end.
    let mut files: Vec<FileSpec> = Vec::new();
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut file_names: HashMap<String, FileId> = HashMap::new();
    let mut job_names: HashMap<String, JobId> = HashMap::new();
    for (line, toks) in &decls {
        match toks[0].to_ascii_uppercase().as_str() {
            "FILE" => {
                if toks.len() < 3 || toks.len() > 4 {
                    return Err(err(*line, "FILE <name> <size_bytes> [INITIAL]"));
                }
                let size: u64 =
                    toks[2].parse().map_err(|_| err(*line, &format!("bad size `{}`", toks[2])))?;
                let initial = match toks.get(3) {
                    None => false,
                    Some(t) if t.eq_ignore_ascii_case("INITIAL") => true,
                    Some(t) => return Err(err(*line, &format!("unexpected token `{t}`"))),
                };
                file_names.entry(toks[1].to_string()).or_insert(FileId::from_index(files.len()));
                files.push(FileSpec::new(toks[1], size, initial));
            }
            "JOB" => {
                if toks.len() < 5 || !toks[3].eq_ignore_ascii_case("CPU") {
                    return Err(err(*line, "JOB <name> <xform> CPU <secs> [CORES n] [TIMEOUT s]"));
                }
                let cpu: f64 = toks[4]
                    .parse()
                    .map_err(|_| err(*line, &format!("bad cpu seconds `{}`", toks[4])))?;
                let mut spec = JobSpec {
                    name: toks[1].to_string(),
                    xform: toks[2].to_string(),
                    cpu_seconds: cpu,
                    cores: 1,
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                    timeout_secs: None,
                };
                let mut i = 5;
                while i < toks.len() {
                    match toks[i].to_ascii_uppercase().as_str() {
                        "CORES" => {
                            let v = toks
                                .get(i + 1)
                                .and_then(|t| t.parse::<u32>().ok())
                                .ok_or_else(|| err(*line, "CORES needs an integer"))?;
                            spec.cores = v.max(1);
                            i += 2;
                        }
                        "TIMEOUT" => {
                            let v = toks
                                .get(i + 1)
                                .and_then(|t| t.parse::<f64>().ok())
                                .ok_or_else(|| err(*line, "TIMEOUT needs seconds"))?;
                            spec.timeout_secs = Some(v);
                            i += 2;
                        }
                        other => return Err(err(*line, &format!("unexpected token `{other}`"))),
                    }
                }
                job_names.entry(toks[1].to_string()).or_insert(JobId::from_index(jobs.len()));
                jobs.push(spec);
            }
            "WORKFLOW" | "INPUT" | "OUTPUT" | "PARENT" => {}
            other => return Err(err(*line, &format!("unknown directive `{other}`"))),
        }
    }

    // Pass 2: wiring.
    let job_id = |t: &str| job_names.get(t).copied().ok_or_else(|| DagError::UnknownName(t.into()));
    let file_id =
        |t: &str| file_names.get(t).copied().ok_or_else(|| DagError::UnknownName(t.into()));
    let mut input_patches: Vec<(JobId, Vec<FileId>)> = Vec::new();
    let mut output_patches: Vec<(JobId, Vec<FileId>)> = Vec::new();
    let mut edges: Vec<(JobId, JobId)> = Vec::new();
    for (line, toks) in &decls {
        match toks[0].to_ascii_uppercase().as_str() {
            "INPUT" | "OUTPUT" => {
                if toks.len() < 3 {
                    return Err(err(*line, "INPUT/OUTPUT <job> <file>..."));
                }
                let job = job_id(toks[1])?;
                let mut files = Vec::with_capacity(toks.len() - 2);
                for t in &toks[2..] {
                    files.push(file_id(t)?);
                }
                if toks[0].eq_ignore_ascii_case("INPUT") {
                    input_patches.push((job, files));
                } else {
                    output_patches.push((job, files));
                }
            }
            "PARENT" => {
                let child_pos = toks
                    .iter()
                    .position(|t| t.eq_ignore_ascii_case("CHILD"))
                    .ok_or_else(|| err(*line, "PARENT ... CHILD ..."))?;
                if child_pos == 1 || child_pos + 1 == toks.len() {
                    return Err(err(*line, "PARENT needs parents and children"));
                }
                let parents: Result<Vec<JobId>, DagError> =
                    toks[1..child_pos].iter().map(|t| job_id(t)).collect();
                let children: Result<Vec<JobId>, DagError> =
                    toks[child_pos + 1..].iter().map(|t| job_id(t)).collect();
                for &p in &parents? {
                    for &c in &children.clone()? {
                        edges.push((p, c));
                    }
                }
            }
            _ => {}
        }
    }
    for (job, files) in input_patches {
        jobs[job.index()].inputs.extend_from_slice(&files);
    }
    for (job, files) in output_patches {
        jobs[job.index()].outputs.extend_from_slice(&files);
    }

    let mut b = WorkflowBuilder::new(name);
    for f in files {
        b.file(f.name, f.size_bytes, f.initial);
    }
    for j in jobs {
        let jb = b.job(j.name, j.xform, j.cpu_seconds).inputs(j.inputs).outputs(j.outputs);
        let jb = jb.cores(j.cores);
        match j.timeout_secs {
            Some(t) => jb.timeout_secs(t).build(),
            None => jb.build(),
        };
    }
    for (p, c) in edges {
        b.edge(p, c);
    }
    b.finish()
}

/// Serialize to the text format, testing every (parent, child) edge for
/// data flow by scanning the child's inputs.
pub fn write_workflow(wf: &Workflow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# generated by dewe-dag");
    let _ = writeln!(out, "WORKFLOW {}", wf.name());
    for f in wf.files() {
        let _ = write!(out, "FILE {} {}", f.name, f.size_bytes);
        if f.initial {
            out.push_str(" INITIAL");
        }
        out.push('\n');
    }
    for j in wf.jobs() {
        let _ = write!(out, "JOB {} {} CPU {}", j.name, j.xform, j.cpu_seconds);
        if j.cores != 1 {
            let _ = write!(out, " CORES {}", j.cores);
        }
        if let Some(t) = j.timeout_secs {
            let _ = write!(out, " TIMEOUT {t}");
        }
        out.push('\n');
    }
    for (ji, j) in wf.jobs().iter().enumerate() {
        let jid = JobId::from_index(ji);
        if !j.inputs.is_empty() {
            let _ = write!(out, "INPUT {}", j.name);
            for &f in &j.inputs {
                let _ = write!(out, " {}", wf.file(f).name);
            }
            out.push('\n');
        }
        if !j.outputs.is_empty() {
            let _ = write!(out, "OUTPUT {}", j.name);
            for &f in &j.outputs {
                let _ = write!(out, " {}", wf.file(f).name);
            }
            out.push('\n');
        }
        for &c in wf.children(jid) {
            let implied = wf.job(c).inputs.iter().any(|&f| wf.producer(f) == Some(jid));
            if !implied {
                let _ = writeln!(out, "PARENT {} CHILD {}", j.name, wf.job(c).name);
            }
        }
    }
    out
}

/// Serialize as a DAX document, with the same per-edge data-flow scan.
pub fn write_dax(wf: &Workflow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, r#"<?xml version="1.0" encoding="UTF-8"?>"#);
    let _ = writeln!(out, r#"<adag name="{}">"#, escape(wf.name()));
    for j in wf.jobs() {
        let _ = writeln!(
            out,
            r#"  <job id="{}" name="{}" runtime="{}">"#,
            escape(&j.name),
            escape(&j.xform),
            j.cpu_seconds
        );
        for (link, list) in [("input", &j.inputs), ("output", &j.outputs)] {
            for &f in list {
                let spec = wf.file(f);
                let _ = writeln!(
                    out,
                    r#"    <uses file="{}" link="{link}" size="{}"/>"#,
                    escape(&spec.name),
                    spec.size_bytes
                );
            }
        }
        let _ = writeln!(out, "  </job>");
    }
    for j in wf.job_ids() {
        for &c in wf.children(j) {
            let implied = wf.job(c).inputs.iter().any(|&f| wf.producer(f) == Some(j));
            if !implied {
                let _ = writeln!(
                    out,
                    r#"  <child ref="{}"><parent ref="{}"/></child>"#,
                    escape(&wf.job(c).name),
                    escape(&wf.job(j).name)
                );
            }
        }
    }
    out.push_str("</adag>\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn err(line: usize, message: &str) -> DagError {
    DagError::Parse { line, message: message.to_string() }
}

/// Everything that makes two workflows the same: name, jobs and files in
/// id order, both adjacency directions, producers and topological order.
#[derive(Debug, PartialEq)]
pub struct Shape {
    name: String,
    jobs: Vec<JobSpec>,
    files: Vec<FileSpec>,
    children: Vec<Vec<JobId>>,
    parents: Vec<Vec<JobId>>,
    producers: Vec<Option<JobId>>,
    topo_order: Vec<JobId>,
}

impl Shape {
    pub fn of(wf: &Workflow) -> Shape {
        Shape {
            name: wf.name().to_string(),
            jobs: wf.jobs().to_vec(),
            files: wf.files().to_vec(),
            children: wf.job_ids().map(|j| wf.children(j).to_vec()).collect(),
            parents: wf.job_ids().map(|j| wf.parents(j).to_vec()).collect(),
            producers: wf.file_ids().map(|f| wf.producer(f)).collect(),
            topo_order: wf.topo_order().to_vec(),
        }
    }
}
