//! The hand-written known answers under `benchmark/expected/`: which items
//! a workload runs and the verdict each must produce, per memory model.
//!
//! One item per line, `|`-separated:
//!
//! ```text
//! item | source | model:verdict[=executions] ... | why this is the answer
//! ```
//!
//! `source` is `lock <name> <threads> <acquires>` (the catalog lock's
//! generic client), `mutant <name> <threads> <acquires> <site>` (the same
//! client with one barrier site weakened to `rlx`), `study dpdk|huawei`
//! (the paper's unfixed §3 scenarios) or `litmus <file>` (a file of the
//! repo's `corpus/`). `verdict` is `verified`, `safety`,
//! `await-termination`, or `violation` (either of the two, with a
//! counterexample). `#` starts a comment.

use std::fmt;
use std::path::Path;

use vsync_core::Verdict;
use vsync_model::ModelKind;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    Lock { lock: String, threads: usize, acquires: usize },
    Mutant { lock: String, threads: usize, acquires: usize, site: String },
    Study(Study),
    Litmus(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    Dpdk,
    Huawei,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Verified,
    Safety,
    AwaitTermination,
    /// `Safety` or `AwaitTermination`: weakening a barrier breaks the
    /// lock, but which symptom the search meets first is not part of the
    /// textbook argument.
    Violation,
}

/// The known answer for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub model: ModelKind,
    pub kind: Kind,
    /// Complete executions, where the answer pins them.
    pub executions: Option<u64>,
}

impl Expect {
    /// `Err` describes the mismatch.
    pub fn check(&self, verdict: &Verdict, executions: u64) -> Result<(), String> {
        let kind_ok = matches!(
            (self.kind, verdict),
            (Kind::Verified, Verdict::Verified)
                | (Kind::Safety | Kind::Violation, Verdict::Safety(_))
                | (Kind::AwaitTermination | Kind::Violation, Verdict::AwaitTermination(_))
        );
        if !kind_ok {
            return Err(format!("{}: expected {}, got {verdict}", self.model, self.kind));
        }
        match self.executions {
            Some(n) if n != executions => {
                Err(format!("{}: expected {n} executions, got {executions}", self.model))
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Verified => "verified",
            Kind::Safety => "safety",
            Kind::AwaitTermination => "await-termination",
            Kind::Violation => "violation",
        })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub name: String,
    pub source: Source,
    /// The model matrix to run, with the answer for each.
    pub expects: Vec<Expect>,
}

impl Item {
    pub fn models(&self) -> impl Iterator<Item = ModelKind> + '_ {
        self.expects.iter().map(|e| e.model)
    }
}

/// Load `benchmark/expected/<workload>.txt`.
pub fn load(dir: &Path, workload: &str) -> Result<Vec<Item>, String> {
    let path = dir.join(format!("{workload}.txt"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse(text: &str) -> Result<Vec<Item>, String> {
    let mut items: Vec<Item> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let item = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if items.iter().any(|it| it.name == item.name) {
            return Err(format!("line {}: item `{}` listed twice", i + 1, item.name));
        }
        items.push(item);
    }
    if items.is_empty() {
        return Err("no items".to_owned());
    }
    Ok(items)
}

fn parse_line(line: &str) -> Result<Item, String> {
    let fields: Vec<&str> = line.split('|').map(str::trim).collect();
    let [name, source, expects, why] = fields[..] else {
        return Err(format!("expected 4 `|`-separated fields, found {}", fields.len()));
    };
    if name.is_empty() {
        return Err("empty item name".to_owned());
    }
    if why.is_empty() {
        return Err(format!("item `{name}` has no justification"));
    }
    let expects = expects.split_whitespace().map(parse_expect).collect::<Result<Vec<_>, _>>()?;
    if expects.is_empty() {
        return Err(format!("item `{name}` expects nothing"));
    }
    Ok(Item { name: name.to_owned(), source: parse_source(source)?, expects })
}

fn parse_source(text: &str) -> Result<Source, String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let number = |w: &str| w.parse::<usize>().map_err(|_| format!("`{w}` is not a number"));
    match words[..] {
        ["lock", lock, threads, acquires] => Ok(Source::Lock {
            lock: lock.to_owned(),
            threads: number(threads)?,
            acquires: number(acquires)?,
        }),
        ["mutant", lock, threads, acquires, site] => Ok(Source::Mutant {
            lock: lock.to_owned(),
            threads: number(threads)?,
            acquires: number(acquires)?,
            site: site.to_owned(),
        }),
        ["study", "dpdk"] => Ok(Source::Study(Study::Dpdk)),
        ["study", "huawei"] => Ok(Source::Study(Study::Huawei)),
        ["litmus", file] => Ok(Source::Litmus(file.to_owned())),
        _ => Err(format!("unknown source `{text}`")),
    }
}

fn parse_expect(text: &str) -> Result<Expect, String> {
    let (model, rest) =
        text.split_once(':').ok_or_else(|| format!("`{text}` is not model:verdict"))?;
    let (kind, executions) = match rest.split_once('=') {
        Some((k, n)) => {
            (k, Some(n.parse::<u64>().map_err(|_| format!("`{n}` is not an execution count"))?))
        }
        None => (rest, None),
    };
    let kind = match kind {
        "verified" => Kind::Verified,
        "safety" => Kind::Safety,
        "await-termination" => Kind::AwaitTermination,
        "violation" => Kind::Violation,
        other => return Err(format!("unknown verdict `{other}`")),
    };
    if executions.is_some() && kind != Kind::Verified {
        return Err(format!("`{text}`: only a verified answer pins an execution count"));
    }
    Ok(Expect { model: model.parse()?, kind, executions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_source_form() {
        let items = parse(
            "# header\n\
             a | lock mcs 3 1 | vmm:verified | paper\n\
             b | mutant ttas 3 1 ttas.acquire.xchg | vmm:violation | textbook # trailing\n\
             c | study dpdk | sc:verified tso:verified vmm:await-termination | sec 3.1\n\
             d | litmus mp.litmus | sc:verified=3 vmm:verified=4 | expect lines\n",
        )
        .unwrap();
        assert_eq!(items.len(), 4);
        assert_eq!(
            items[1].source,
            Source::Mutant {
                lock: "ttas".into(),
                threads: 3,
                acquires: 1,
                site: "ttas.acquire.xchg".into()
            }
        );
        assert_eq!(items[2].source, Source::Study(Study::Dpdk));
        assert_eq!(items[2].models().collect::<Vec<_>>(), ModelKind::all());
        assert_eq!(
            items[3].expects[1],
            Expect { model: ModelKind::Vmm, kind: Kind::Verified, executions: Some(4) }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "a | lock mcs 3 1 | vmm:verified",
            "a | lock mcs three 1 | vmm:verified | why",
            "a | lock mcs 3 1 | vmm:maybe | why",
            "a | lock mcs 3 1 | arm:verified | why",
            "a | lock mcs 3 1 | vmm:safety=2 | why",
            "a | lock mcs 3 1 | vmm:verified |",
            "a | teleport | vmm:verified | why",
            "a | lock mcs 3 1 | vmm:verified | x\na | lock mcs 2 1 | vmm:verified | x",
            "# nothing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn a_verdict_is_checked_by_kind_and_count() {
        let verified = Expect { model: ModelKind::Vmm, kind: Kind::Verified, executions: Some(4) };
        assert!(verified.check(&Verdict::Verified, 4).is_ok());
        assert!(verified.check(&Verdict::Verified, 5).is_err());
        assert!(verified.check(&Verdict::Fault("x".into()), 4).is_err());
        let violation = Expect { model: ModelKind::Vmm, kind: Kind::Violation, executions: None };
        assert!(violation.check(&Verdict::Verified, 0).is_err());
        assert!(violation.check(&Verdict::Fault("budget".into()), 0).is_err());
    }
}
