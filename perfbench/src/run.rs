//! The timed run: repeat the workload's rounds for the requested time,
//! timing every job and judging every output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use printed_codesign::{ExplorationConfig, FlowOutcome};

use crate::oracle::{check_chosen_faults, check_flow, fingerprint, Verdict};
use crate::workload::{run_flow, run_job, Inputs, Workload};

/// Jobs attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs run.
    pub attempted: usize,
    /// Jobs that panicked or whose output failed an oracle.
    pub failed: usize,
}

impl Tally {
    /// Counts one job, reporting a failure on stderr.
    pub fn record(&mut self, job: usize, verdict: &Verdict) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("job {job} failed: {why}");
        }
    }
}

/// Whether job `index` is the first of its dataset — the jobs that get
/// the costlier once-per-dataset checks.
fn first_of_its_dataset(inputs: &Inputs, index: usize) -> bool {
    index == 0 || inputs.splits[index - 1].bench != inputs.splits[index].bench
}

/// Judges job `index`'s output and returns its fingerprint: every
/// oracle on first sight, and on a rerun equality with the first
/// output's fingerprint.
pub fn judge(
    inputs: &Inputs,
    index: usize,
    output: &FlowOutcome,
    first: Option<u64>,
) -> Result<u64, String> {
    let print = fingerprint(output);
    if let Some(first) = first {
        return if print == first {
            Ok(print)
        } else {
            Err("a rerun gives another output".to_owned())
        };
    }
    let split = &inputs.splits[index];
    check_flow(output, split, inputs.workload.robust())?;
    check_chosen_faults(output, split)?;
    Ok(print)
}

/// Runs a flow, turning a panic into a failed verdict.
pub fn attempt(flow: impl FnOnce() -> FlowOutcome) -> Result<FlowOutcome, String> {
    catch_unwind(AssertUnwindSafe(flow)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())
    })
}

/// Timings of one timed run.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Wall time of each round (the sum of its job times).
    pub rounds: Vec<f64>,
    /// Wall time of every job.
    pub jobs: Vec<f64>,
    /// Fingerprint of each job's first output, `None` if it failed.
    pub prints: Vec<Option<u64>>,
    /// Jobs attempted and failed.
    pub tally: Tally,
}

/// Repeats rounds while another round of the last one's length still
/// fits in `seconds` of measured time; at least one round runs. After
/// each job, `between_jobs` gets the share of `seconds` measured so far
/// (capped at 1). Oracle time and `between_jobs` are not measured; every
/// later round is judged against the first.
pub fn measure(inputs: &Inputs, seconds: f64, mut between_jobs: impl FnMut(f64)) -> Measurement {
    let mut m = Measurement {
        prints: vec![None; inputs.splits.len()],
        ..Measurement::default()
    };
    let mut measured = 0.0;
    loop {
        let mut round = 0.0;
        for (index, first) in m.prints.iter_mut().enumerate() {
            let start = Instant::now();
            let result = attempt(|| run_job(inputs, index));
            let took = start.elapsed().as_secs_f64();
            round += took;
            m.jobs.push(took);
            let verdict = result.and_then(|output| judge(inputs, index, &output, *first));
            if let Ok(print) = verdict {
                first.get_or_insert(print);
            }
            m.tally.record(index, &verdict.map(drop));
            between_jobs(((measured + round) / seconds).min(1.0));
        }
        m.rounds.push(round);
        measured += round;
        if measured + round > seconds {
            return m;
        }
    }
}

/// Untimed reruns, each counted as a job, that must reproduce the
/// fingerprints in `prints`: on `design` the first split of each dataset
/// reruns single-threaded, and when `one_round` (no later round was
/// compared with the first) the first job reruns as it ran. A timed run
/// makes them after it reads its peak RSS, because a single-threaded
/// flow grows the main thread's heap, which no timed job does.
pub fn rerun_checks(inputs: &Inputs, prints: &[Option<u64>], one_round: bool, tally: &mut Tally) {
    for (index, &print) in prints.iter().enumerate() {
        let Some(print) = print else {
            continue;
        };
        let mut grids = Vec::new();
        if inputs.workload == Workload::Design && first_of_its_dataset(inputs, index) {
            grids.push(ExplorationConfig {
                threads: Some(1),
                ..ExplorationConfig::paper()
            });
        }
        if one_round && index == 0 {
            grids.push(ExplorationConfig::paper());
        }
        for grid in grids {
            let serial = grid.threads == Some(1);
            let split = &inputs.splits[index];
            let verdict =
                attempt(|| run_flow(split, inputs.workload.robust(), grid)).and_then(|rerun| {
                    if fingerprint(&rerun) == print {
                        Ok(())
                    } else if serial {
                        Err("a single-threaded rerun gives another output".to_owned())
                    } else {
                        Err("a rerun gives another output".to_owned())
                    }
                });
            tally.record(index, &verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::setup;

    #[test]
    fn corrupted_outputs_count_as_failed_jobs() {
        let inputs = setup(Workload::Design, 5);
        let good = run_job(&inputs, 0);
        let mut bad = good.clone();
        let other = bad.sweep.candidates.iter().find(|c| **c != bad.chosen);
        bad.chosen = other.cloned().expect("the grid has more than one design");
        let mut tally = Tally::default();
        let rerun = run_job(&inputs, 0);
        let mut judged = |output: &FlowOutcome, first| {
            tally.record(0, &judge(&inputs, 0, output, first).map(drop));
        };
        judged(&good, None);
        judged(&rerun, Some(fingerprint(&good)));
        judged(&bad, None);
        judged(&bad, Some(fingerprint(&good)));
        tally.record(1, &attempt(|| panic!("a job panics")).map(drop));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }

    #[test]
    fn reruns_are_counted_and_a_changed_rerun_fails() {
        let inputs = setup(Workload::Design, 5);
        let print = fingerprint(&run_job(&inputs, 0));
        let mut prints = vec![None; inputs.splits.len()];
        prints[0] = Some(print);
        let mut tally = Tally::default();
        rerun_checks(&inputs, &prints, true, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        prints[0] = Some(print ^ 1);
        rerun_checks(&inputs, &prints, false, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
    }

    #[test]
    fn once_checks_go_to_the_first_job_of_each_dataset() {
        let inputs = setup(Workload::Design, 5);
        let firsts = (0..inputs.splits.len())
            .filter(|&i| first_of_its_dataset(&inputs, i))
            .count();
        assert_eq!(firsts, 8);
    }
}
