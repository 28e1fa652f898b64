//! What a workload process reports to the runner, and the line format it
//! travels in.
//!
//! A workload process prints its figures and tables to stdout like any
//! `reproduce` run; the runner keeps only lines starting with `@@`:
//!
//! ```text
//! @@v <name> <value>...      named samples (one value for a scalar)
//! @@digest <hex>             the dataset digest
//! @@ops <attempted> <failed> operations and failures
//! @@err <text>               a failed check
//! @@span <name> <start_s> <end_s> <parent|->
//! ```

use crate::trace::Span;
use s2s_probe::CampaignReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload process's measurements, counts and failed checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Named samples.
    pub values: BTreeMap<String, Vec<f64>>,
    /// The dataset digest, where the workload has one.
    pub digest: Option<u64>,
    /// Operations attempted: campaign slots, snapshot traces, queries and
    /// checks.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Sets a scalar.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), vec![v]);
    }

    /// Adds to a scalar (0 if unset).
    pub fn add(&mut self, name: &str, v: f64) {
        let e = self
            .values
            .entry(name.to_string())
            .or_insert_with(|| vec![0.0]);
        e[0] += v;
    }

    /// Appends samples to a named series.
    pub fn extend(&mut self, name: &str, vs: impl IntoIterator<Item = f64>) {
        self.values.entry(name.to_string()).or_default().extend(vs);
    }

    /// The first sample of `name`.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|v| v.first().copied())
    }

    /// Books `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Books one check; a failing one records `what` happened.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, usize::from(!ok));
        if !ok {
            self.errors.push(what());
        }
    }

    /// Books a campaign's slots: under the quiet fault profile every
    /// offered slot must deliver a clean record.
    pub fn slots_delivered(&mut self, r: &CampaignReport, what: &str) {
        let short = r.offered.saturating_sub(r.delivered);
        self.ops(r.offered, short);
        if short > 0 {
            self.errors.push(format!(
                "{what}: {short} of {} slots not delivered",
                r.offered
            ));
        }
    }

    /// The `@@` line form.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (name, vs) in &self.values {
            let _ = write!(out, "@@v {name}");
            for v in vs {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        if let Some(d) = self.digest {
            let _ = writeln!(out, "@@digest {d:016x}");
        }
        let _ = writeln!(out, "@@ops {} {}", self.attempted, self.failed);
        for e in &self.errors {
            let _ = writeln!(out, "@@err {}", e.replace('\n', " "));
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "@@span {} {} {} {parent}", s.name, s.start_s, s.end_s);
        }
        out
    }

    /// Parses the `@@` lines of a workload process's stdout, ignoring
    /// everything else it printed.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}'"));
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("@@") else {
                continue;
            };
            let (tag, body) = rest.split_once(' ').unwrap_or((rest, ""));
            let w: Vec<&str> = body.split_whitespace().collect();
            match (tag, w.as_slice()) {
                ("v", [name, vs @ ..]) => {
                    let vs = vs.iter().map(|v| num(v)).collect::<Result<Vec<_>, _>>()?;
                    r.extend(name, vs);
                }
                ("digest", [hex]) => {
                    r.digest = Some(
                        u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest '{hex}'"))?,
                    )
                }
                ("ops", [a, f]) => {
                    r.attempted += a.parse::<u64>().map_err(|_| format!("bad count '{a}'"))?;
                    r.failed += f.parse::<u64>().map_err(|_| format!("bad count '{f}'"))?;
                }
                ("err", _) => r.errors.push(body.to_string()),
                ("span", [name, start, end, parent]) => {
                    let name = name.to_string().into();
                    let parent = match *parent {
                        "-" => None,
                        p => Some(
                            p.parse::<usize>()
                                .map_err(|_| format!("bad parent '{p}'"))?,
                        ),
                    };
                    r.spans.push(Span {
                        name,
                        start_s: num(start)?,
                        end_s: num(end)?,
                        parent,
                    });
                }
                _ => return Err(format!("unrecognised report line '{line}'")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let mut r = Report::default();
        r.set("run_s", 1.25);
        r.extend("latency_ms", [0.5, 7.0, 1e-9]);
        r.add("routing.route_compute_n", 3.0);
        r.add("routing.route_compute_n", 4.0);
        r.digest = Some(0x56050a91ce1c659f);
        r.check(true, || unreachable!());
        r.check(false, || "digest mismatch\nsecond line".to_string());
        r.spans = vec![
            Span {
                name: "run".into(),
                start_s: 0.0,
                end_s: 2.0,
                parent: None,
            },
            Span {
                name: "campaign.longterm".into(),
                start_s: 0.1,
                end_s: 1.5,
                parent: Some(0),
            },
        ];
        let text = format!("TABLE 1 — v4\n{}  ignored\n", r.emit());
        let back = Report::parse(&text).unwrap();
        assert_eq!(back.values, r.values);
        assert_eq!(back.digest, r.digest);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.errors, vec!["digest mismatch second line"]);
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.scalar("routing.route_compute_n"), Some(7.0));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Report::parse("@@v run_s fast").is_err());
        assert!(Report::parse("@@what 1").is_err());
    }
}
