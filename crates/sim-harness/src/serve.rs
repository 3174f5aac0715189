//! `experiments --serve`: the farm's long-running request loop.
//!
//! [`serve`] reads scenario requests line-by-line from any reader
//! (`stdin` in the CLI), multiplexes them onto the batch farm, and streams
//! result blocks back with request-id framing — the "heavy traffic" entry
//! point: a warm cache turns repeated requests into instant replies.
//!
//! # Protocol
//!
//! One request per line, whitespace-separated; blank lines and `#` comments
//! are ignored. Three verbs:
//!
//! ```text
//! run <id> key=value ...      execute a scenario matrix
//! stats <id>                  cumulative farm statistics
//! quit                        end the session (EOF works too)
//! ```
//!
//! `run` keys mirror the `.scn` grammar: `name=`, `protocol=`, `topology=`,
//! `degree=`, `n=`/`sizes=` and `seed=`/`seeds=` (comma lists),
//! `max_rounds=`, `mode=round|event`, `scheduler=<name>,<bound>,<seed>`,
//! the fault keys `fault_seed=`, `drop=`, `outage=`, `latency=`, `crash=`,
//! `recover=`, `byzantine=`, `adversary=` (comma lists, repeatable), plus
//! `trace=1` to stream the cells' trace blocks and `spec=<path>` to load a
//! spec file or directory instead of inline keys. The request is rendered
//! into spec text and parsed by the normal spec parser, so validation —
//! including the unknown-protocol error that lists the registry — is
//! identical to the file-based path.
//!
//! Every response line for a request carries its id, so interleaved clients
//! can demultiplex:
//!
//! ```text
//! begin <id> cells=<k>
//! row <id> <results-table line>     (header first, then one per cell,
//!                                    streamed in cell order as cells finish)
//! trace <id> <trace line>           (after the cell's row; trace=1 only)
//! end <id> ok cells=<k> hits=<h> misses=<m>
//! ```
//!
//! Failures render as `error <id> code=<c> <message>` lines followed by
//! `end <id> error`. The code mirrors the CLI's exit-code contract:
//! spec-authoring errors the registry can explain (unknown protocol, with
//! the registered names listed) and malformed request lines carry `code=2`;
//! runtime failures carry `code=1`.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use crate::engine::{expand, results_table_header, results_table_row, CellResult};
use crate::farm::{run_farm, FarmOptions, FarmSink};
use crate::spec::ScenarioSpec;
use crate::trace;

/// How [`serve`] runs its farm.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Cache directory shared by every request (`None` = no caching).
    pub cache_dir: Option<PathBuf>,
    /// Pin telemetry on (bypasses the cache; see
    /// [`FarmOptions::telemetry`]).
    pub telemetry: bool,
}

/// Cumulative statistics over one serve session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// `run` requests that reached the farm.
    pub requests: usize,
    /// Cells across completed requests.
    pub cells: usize,
    /// Cache hits across completed requests.
    pub hits: usize,
    /// Cache misses across completed requests.
    pub misses: usize,
}

/// The per-request sink: streams each completed cell's table row (and,
/// when asked, its trace block) under the request's id framing.
struct RequestSink<'a, W: Write + Send> {
    out: &'a mut W,
    id: &'a str,
    with_trace: bool,
}

impl<W: Write + Send> FarmSink for RequestSink<'_, W> {
    fn on_cell(
        &mut self,
        _index: usize,
        result: CellResult,
        _from_cache: bool,
    ) -> Result<(), String> {
        let row = results_table_row(&result);
        writeln!(self.out, "row {} {}", self.id, row.trim_end())
            .map_err(|e| format!("serve output: {e}"))?;
        if self.with_trace {
            for line in trace::serialize_cell(&result).lines() {
                writeln!(self.out, "trace {} {line}", self.id)
                    .map_err(|e| format!("serve output: {e}"))?;
            }
        }
        self.out.flush().map_err(|e| format!("serve output: {e}"))
    }
}

/// Runs the request loop until `quit` or EOF, returning the session
/// summary. Request-level failures (malformed lines, spec errors, failing
/// cells) are reported in-band with `error`/`end` framing and never end the
/// session.
///
/// # Errors
///
/// Only transport failures are fatal: an unreadable input line or an
/// unwritable output.
pub fn serve<R: BufRead, W: Write + Send>(
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> Result<ServeSummary, String> {
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let line = line.map_err(|e| format!("serve input: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().unwrap_or_default();
        let id = tokens.next().unwrap_or("-").to_string();
        match verb {
            "quit" => {
                writeln!(output, "bye").map_err(|e| format!("serve output: {e}"))?;
                output.flush().map_err(|e| format!("serve output: {e}"))?;
                break;
            }
            "stats" => {
                writeln!(
                    output,
                    "stats {id} requests={} cells={} hits={} misses={}",
                    summary.requests, summary.cells, summary.hits, summary.misses
                )
                .map_err(|e| format!("serve output: {e}"))?;
                output.flush().map_err(|e| format!("serve output: {e}"))?;
            }
            "run" => {
                let keys: Vec<&str> = tokens.collect();
                match run_request(&id, &keys, output, opts, &mut summary) {
                    Ok(()) => {}
                    Err((code, message)) => {
                        for msg in message.lines() {
                            writeln!(output, "error {id} code={code} {msg}")
                                .map_err(|e| format!("serve output: {e}"))?;
                        }
                        writeln!(output, "end {id} error")
                            .map_err(|e| format!("serve output: {e}"))?;
                        output.flush().map_err(|e| format!("serve output: {e}"))?;
                    }
                }
            }
            other => {
                writeln!(
                    output,
                    "error {id} code=2 unknown request \"{other}\" (expected run, stats, or quit)"
                )
                .map_err(|e| format!("serve output: {e}"))?;
                writeln!(output, "end {id} error").map_err(|e| format!("serve output: {e}"))?;
                output.flush().map_err(|e| format!("serve output: {e}"))?;
            }
        }
    }
    Ok(summary)
}

/// Handles one `run` request end to end. The error side carries the
/// in-band `(code, message)` pair; transport failures come back through
/// the message with code 1 (the caller's writes will fail right after
/// anyway).
fn run_request<W: Write + Send>(
    id: &str,
    keys: &[&str],
    output: &mut W,
    opts: &ServeOptions,
    summary: &mut ServeSummary,
) -> Result<(), (i32, String)> {
    if id == "-"
        || !id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
    {
        return Err((
            2,
            format!("run needs a request id (alphanumeric/-_.), got \"{id}\""),
        ));
    }
    let (specs, with_trace) = request_specs(id, keys)?;
    let cells = expand(&specs);
    summary.requests += 1;
    writeln!(output, "begin {id} cells={}", cells.len())
        .map_err(|e| (1, format!("serve output: {e}")))?;
    let header = results_table_header();
    writeln!(output, "row {id} {}", header.trim_end())
        .map_err(|e| (1, format!("serve output: {e}")))?;
    let farm_opts = FarmOptions {
        telemetry: opts.telemetry,
        cache_dir: opts.cache_dir.clone(),
    };
    let mut sink = RequestSink {
        out: output,
        id,
        with_trace,
    };
    let report = run_farm(&cells, &farm_opts, &mut sink).map_err(|e| (error_code(&e), e))?;
    summary.cells += report.cells;
    summary.hits += report.hits;
    summary.misses += report.misses;
    writeln!(
        output,
        "end {id} ok cells={} hits={} misses={}",
        report.cells, report.hits, report.misses
    )
    .map_err(|e| (1, format!("serve output: {e}")))?;
    output
        .flush()
        .map_err(|e| (1, format!("serve output: {e}")))?;
    Ok(())
}

/// The in-band error code: spec-authoring errors the registry can explain
/// carry the CLI's usage exit code.
fn error_code(message: &str) -> i32 {
    if message.contains("unknown protocol") {
        2
    } else {
        1
    }
}

/// Resolves a request's `key=value` tokens into parsed specs (plus the
/// `trace=1` flag), either by loading `spec=<path>` or by rendering the
/// inline keys into spec text for the normal parser.
fn request_specs(id: &str, keys: &[&str]) -> Result<(Vec<ScenarioSpec>, bool), (i32, String)> {
    let mut scenario: Vec<String> = Vec::new();
    let mut faults: Vec<String> = Vec::new();
    let mut name: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut with_trace = false;
    for token in keys {
        let Some((key, value)) = token.split_once('=') else {
            return Err((2, format!("expected key=value, got \"{token}\"")));
        };
        match key {
            "trace" => with_trace = value == "1",
            "spec" => spec_path = Some(value.to_string()),
            "name" => name = Some(value.to_string()),
            "protocol" | "topology" | "mode" => scenario.push(format!("{key} = \"{value}\"")),
            "degree" | "max_rounds" => scenario.push(format!("{key} = {value}")),
            "n" | "sizes" => scenario.push(format!("sizes = {}", int_list(value))),
            "seed" | "seeds" => scenario.push(format!("seeds = {}", int_list(value))),
            "scheduler" => {
                let (sched_name, bounds) = value.split_once(',').unwrap_or((value, ""));
                scenario.push(format!(
                    "scheduler = [\"{sched_name}\", {}]",
                    bounds.replace(',', ", ")
                ));
            }
            "fault_seed" => faults.push(format!("seed = {value}")),
            "drop" | "adversary" => faults.push(format!("{key} = {value}")),
            "outage" | "latency" | "crash" | "recover" | "byzantine" => {
                faults.push(format!("{key} = {}", int_list(value)));
            }
            other => {
                return Err((
                    2,
                    format!(
                        "unknown key \"{other}\" (known: name, protocol, topology, degree, n, \
                         sizes, seed, seeds, max_rounds, mode, scheduler, spec, trace, \
                         fault_seed, drop, outage, latency, crash, recover, byzantine, adversary)"
                    ),
                ));
            }
        }
    }
    if let Some(path) = spec_path {
        if !scenario.is_empty() || !faults.is_empty() || name.is_some() {
            return Err((
                2,
                "spec= excludes inline scenario keys (only trace= combines with it)".into(),
            ));
        }
        let specs = crate::load_specs(&path).map_err(|e| (error_code(&e), e))?;
        return Ok((specs, with_trace));
    }
    let mut text = String::from("[scenario]\n");
    text.push_str(&format!(
        "name = \"{}\"\n",
        name.unwrap_or_else(|| format!("req-{id}"))
    ));
    for line in &scenario {
        text.push_str(line);
        text.push('\n');
    }
    if !faults.is_empty() {
        text.push_str("\n[faults]\n");
        for line in &faults {
            text.push_str(line);
            text.push('\n');
        }
    }
    let specs = ScenarioSpec::parse_many(&text).map_err(|e| {
        let message = e.to_string();
        (error_code(&message), message)
    })?;
    Ok((specs, with_trace))
}

/// Renders a comma list (`0,1,2`) as the spec grammar's `[0, 1, 2]`.
fn int_list(value: &str) -> String {
    format!("[{}]", value.replace(',', ", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_lines(input: &str, opts: &ServeOptions) -> (Vec<String>, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn well_formed_request_streams_a_framed_block() {
        let (lines, summary) = serve_lines(
            "run a1 protocol=flood topology=cycle n=16 seed=1,2\nquit\n",
            &ServeOptions::default(),
        );
        assert_eq!(lines[0], "begin a1 cells=2");
        assert!(lines[1].starts_with("row a1 scenario"), "{}", lines[1]);
        assert!(lines[2].contains("req-a1"), "{}", lines[2]);
        assert!(lines[4].starts_with("end a1 ok cells=2"), "{}", lines[4]);
        assert_eq!(lines.last().unwrap(), "bye");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.cells, 2);
    }

    #[test]
    fn unknown_protocol_is_a_code_2_error_listing_the_registry() {
        let (lines, summary) = serve_lines(
            "run b protocol=flood-3000 topology=cycle\n",
            &ServeOptions::default(),
        );
        let error = lines.iter().find(|l| l.starts_with("error b")).unwrap();
        assert!(error.contains("code=2"), "{error}");
        assert!(error.contains("unknown protocol \"flood-3000\""), "{error}");
        for p in crate::ALL_PROTOCOLS {
            assert!(error.contains(p.name()), "missing {}: {error}", p.name());
        }
        assert!(lines.contains(&"end b error".to_string()));
        assert_eq!(summary.requests, 0);
    }

    #[test]
    fn malformed_requests_are_code_2_and_do_not_end_the_session() {
        let (lines, summary) = serve_lines(
            "frobnicate x\nrun y protocol\nrun z chaos=1\nrun a2 protocol=flood topology=cycle n=12\nquit\n",
            &ServeOptions::default(),
        );
        assert!(
            lines[0].contains("unknown request \"frobnicate\""),
            "{}",
            lines[0]
        );
        assert!(lines
            .iter()
            .any(|l| l.starts_with("error y code=2") && l.contains("key=value")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("error z code=2") && l.contains("unknown key \"chaos\"")));
        assert!(lines.iter().any(|l| l.starts_with("end a2 ok")));
        assert_eq!(summary.requests, 1);
    }

    #[test]
    fn stats_reports_cumulative_counts() {
        let (lines, _) = serve_lines(
            "run s1 protocol=flood topology=cycle n=12,16\nstats q\nquit\n",
            &ServeOptions::default(),
        );
        let stats = lines.iter().find(|l| l.starts_with("stats q")).unwrap();
        assert_eq!(stats, "stats q requests=1 cells=2 hits=0 misses=2");
    }
}
