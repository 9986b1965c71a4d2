//! The one fault-campaign runner: every campaign in the workspace —
//! simulator faults (`vtq-bench faults`), disk faults and daemon client
//! faults (`vtq-bench chaos`) — is a list of [`Scenario`]s run by
//! [`run`] into a [`Report`] of [`Outcome`]s and exported by
//! [`Report::export`].
//!
//! A scenario is a named, seeded closure returning a [`Verdict`]:
//! `Ok(detail)` when its contract held, `Err(detail)` when it broke. The
//! closure is called with the attempt index; returning `Err(verdict)`
//! from the *step* asks for another attempt (the caller escalates per
//! attempt, e.g. by doubling a cycle budget), and `verdict` stands once
//! the retry budget is spent. A scenario that panics is a violation and
//! the scenarios after it still run.
//!
//! The export is checksum-framed flat JSONL (see [`gpusim::frames`]),
//! published atomically through
//! [`write_file_durable`](crate::diskfault::write_file_durable):
//!
//! ```text
//! {"record":"provenance",...}
//! {"record":"scenario","scenario":"control","seed":42,"retries":0,"ok":1,"detail":"..."}
//! {"record":"campaign_summary","scenarios":25,"retries":12,"violations":0}
//! ```

use std::io;
use std::path::Path;

use gpusim::frames::{frame_lines, quote};

use crate::sweep::SweepEngine;

/// A scenario's verdict: `Ok(detail)` = the contract held (the fault was
/// injected and recovered from, or surfaced as the expected typed
/// error), `Err(detail)` = the contract was violated.
pub type Verdict = Result<String, String>;

/// One named, seeded unit of a campaign.
pub struct Scenario<'a> {
    name: String,
    seed: u64,
    step: Box<dyn Fn(u32) -> Result<Verdict, Verdict> + Send + 'a>,
}

impl<'a> Scenario<'a> {
    /// A scenario named `name` (the per-scenario table groups by it)
    /// whose faults derive from `seed` (0 for deterministic scenarios
    /// that draw none). `step` is one attempt: called with the attempt
    /// index (0 first), it returns `Ok(verdict)` to settle the scenario
    /// or `Err(verdict)` to request a retry, and `verdict` stands when no
    /// retries are left.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        step: impl Fn(u32) -> Result<Verdict, Verdict> + Send + 'a,
    ) -> Scenario<'a> {
        Scenario { name: name.into(), seed, step: Box::new(step) }
    }
}

/// How one scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The scenario's name.
    pub scenario: String,
    /// The scenario's seed.
    pub seed: u64,
    /// Retries consumed (0 = the first attempt settled it).
    pub retries: u32,
    /// The final verdict.
    pub verdict: Verdict,
}

/// A whole campaign's outcomes, in scenario order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// One outcome per scenario.
    pub outcomes: Vec<Outcome>,
}

/// One row of [`Report::table`]: a scenario name and its run counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRow {
    /// The scenario name.
    pub scenario: String,
    /// Outcomes under this name.
    pub runs: usize,
    /// Outcomes under this name that violated the contract.
    pub violations: usize,
}

impl Report {
    /// `true` when every scenario kept its contract.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.verdict.is_ok())
    }

    /// The outcomes that broke their contract.
    pub fn violations(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().filter(|o| o.verdict.is_err())
    }

    fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// One-line digest: scenario runs, retries, violations.
    pub fn summary(&self) -> String {
        format!(
            "{} scenario runs, {} retries, {} contract violations",
            self.outcomes.len(),
            self.retries(),
            self.violations().count()
        )
    }

    /// One row per scenario name, in first-seen order.
    pub fn table(&self) -> Vec<ScenarioRow> {
        let mut rows: Vec<ScenarioRow> = Vec::new();
        for o in &self.outcomes {
            let i = match rows.iter().position(|r| r.scenario == o.scenario) {
                Some(i) => i,
                None => {
                    rows.push(ScenarioRow { scenario: o.scenario.clone(), runs: 0, violations: 0 });
                    rows.len() - 1
                }
            };
            rows[i].runs += 1;
            rows[i].violations += usize::from(o.verdict.is_err());
        }
        rows
    }

    fn to_jsonl(&self, provenance: String) -> String {
        let scenarios = self.outcomes.iter().map(|o| {
            let (ok, detail) = match &o.verdict {
                Ok(d) => (1, d),
                Err(d) => (0, d),
            };
            format!(
                "{{\"record\":\"scenario\",\"scenario\":{},\"seed\":{},\"retries\":{},\
                 \"ok\":{ok},\"detail\":{}}}",
                quote(&o.scenario),
                o.seed,
                o.retries,
                quote(detail),
            )
        });
        let summary = format!(
            "{{\"record\":\"campaign_summary\",\"scenarios\":{},\"retries\":{},\
             \"violations\":{}}}",
            self.outcomes.len(),
            self.retries(),
            self.violations().count(),
        );
        frame_lines(std::iter::once(provenance).chain(scenarios).chain(std::iter::once(summary)))
    }

    /// Publishes the framed JSONL export at `path` atomically (creating
    /// the parent directory if missing): the `provenance` line (a
    /// [`provenance_line`](crate::provenance::provenance_line)), one
    /// `scenario` record per outcome, one `campaign_summary` trailer.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or publishing the file.
    pub fn export(&self, path: &Path, provenance: String) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        crate::diskfault::write_file_durable(path, self.to_jsonl(provenance).as_bytes())
    }
}

/// Runs `scenarios` on `engine` (panic-isolated, with up to
/// `max_retries` retries per scenario) and returns their outcomes in
/// input order. A panic becomes a violation whose detail is the panic
/// message.
pub fn run(engine: &SweepEngine, scenarios: Vec<Scenario<'_>>, max_retries: u32) -> Report {
    let mut meta = Vec::with_capacity(scenarios.len());
    let mut tasks = Vec::with_capacity(scenarios.len());
    for (index, s) in scenarios.into_iter().enumerate() {
        tasks.push((format!("{index}/{}", s.name), s.step));
        meta.push((s.name, s.seed));
    }
    let results = engine.run_tasks_retrying(tasks, max_retries, |_: &Verdict| true);
    let outcomes = meta
        .into_iter()
        .zip(results)
        .map(|((scenario, seed), result)| {
            let (retries, verdict) = match result {
                Ok(retried) => (retried.retries, retried.result.unwrap_or_else(|v| v)),
                Err(e) => (0, Err(format!("panicked: {}", e.message))),
            };
            Outcome { scenario, seed, retries, verdict }
        })
        .collect();
    Report { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::frames::FlatRecord;

    #[test]
    fn retries_escalate_until_settled_or_spent() {
        let engine = SweepEngine::new(1);
        let scenarios = vec![
            // Settles on attempt 2.
            Scenario::new("escalate", 7, |attempt| {
                if attempt < 2 {
                    Err(Err(format!("attempt {attempt} short")))
                } else {
                    Ok(Ok(format!("settled on attempt {attempt}")))
                }
            }),
            // Never settles: the last attempt's verdict stands.
            Scenario::new("spent", 8, |attempt| Err(Ok(format!("still retrying at {attempt}")))),
        ];
        let report = run(&engine, scenarios, 3);
        assert_eq!(report.outcomes[0].retries, 2);
        assert_eq!(report.outcomes[0].verdict, Ok("settled on attempt 2".to_string()));
        assert_eq!(report.outcomes[1].retries, 3);
        assert_eq!(report.outcomes[1].verdict, Ok("still retrying at 3".to_string()));
        assert_eq!(report.retries(), 5);
        assert!(report.is_clean());
    }

    #[test]
    fn a_panicking_scenario_is_a_violation_and_later_ones_still_run() {
        let engine = SweepEngine::new(1);
        let scenarios = vec![
            Scenario::new("before", 1, |_| Ok(Ok("fine".to_string()))),
            Scenario::new("boom", 2, |_| -> Result<Verdict, Verdict> {
                panic!("scenario exploded")
            }),
            Scenario::new("after", 3, |_| Ok(Ok("still ran".to_string()))),
            Scenario::new("after", 4, |_| Ok(Err("broke".to_string()))),
        ];
        let report = run(&engine, scenarios, 2);
        assert_eq!(report.outcomes.len(), 4);
        let boom = &report.outcomes[1];
        assert_eq!((boom.scenario.as_str(), boom.seed, boom.retries), ("boom", 2, 0));
        let detail = boom.verdict.as_ref().expect_err("a panic is a violation");
        assert!(detail.contains("panicked") && detail.contains("scenario exploded"), "{detail}");
        assert_eq!(report.outcomes[2].verdict, Ok("still ran".to_string()));
        assert!(!report.is_clean());
        assert_eq!(report.violations().count(), 2);
        assert_eq!(
            report.table(),
            vec![
                ScenarioRow { scenario: "before".to_string(), runs: 1, violations: 0 },
                ScenarioRow { scenario: "boom".to_string(), runs: 1, violations: 1 },
                ScenarioRow { scenario: "after".to_string(), runs: 2, violations: 1 },
            ]
        );
        assert_eq!(report.summary(), "4 scenario runs, 0 retries, 2 contract violations");

        // The export is still written, every line framed, one record per
        // outcome plus the summary trailer.
        let dir = std::env::temp_dir().join(format!("vtq-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("campaign.jsonl");
        report.export(&path, crate::provenance::provenance_line(None, Some(9))).expect("export");
        let text = std::fs::read_to_string(&path).expect("export readable");
        let records: Vec<FlatRecord> = text
            .lines()
            .map(|l| {
                assert!(gpusim::frames::is_framed(l), "unframed: {l}");
                FlatRecord::parse(l).expect("valid record")
            })
            .collect();
        assert_eq!(records.len(), 6);
        assert_eq!(records[0].str("record").unwrap(), "provenance");
        let boom = &records[2];
        assert_eq!(boom.str("record").unwrap(), "scenario");
        assert_eq!(boom.str("scenario").unwrap(), "boom");
        assert_eq!(boom.u64("seed").unwrap(), 2);
        assert_eq!(boom.u64("ok").unwrap(), 0);
        assert!(boom.str("detail").unwrap().contains("scenario exploded"));
        let summary = &records[5];
        assert_eq!(summary.str("record").unwrap(), "campaign_summary");
        assert_eq!(summary.u64("scenarios").unwrap(), 4);
        assert_eq!(summary.u64("violations").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
