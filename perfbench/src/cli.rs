//! The strict command line: every flag is known, every flag has a value,
//! and anything else — including `--help` — prints the usage and fails
//! before any work starts.

use std::fmt;

/// Usage text printed on every rejected command line.
pub const USAGE: &str = "usage: perfbench --workload <steady|surge> --seed <u64> \
[--seconds <1..=600>] [--trace <0|1>]";

/// The input regime a run drives through every phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Constant offered load; the forwarding working set fits the
    /// per-engine key cache; no flood in the simulation.
    Steady,
    /// A flash crowd on the UDP chain, a best-effort flood in the
    /// simulation, and a forwarding working set far beyond the key cache.
    Surge,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Steady, Workload::Surge];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Surge => "surge",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A parsed, validated command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// Input regime.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds, split across the phases.
    pub seconds: u64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{USAGE}", self.0)
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    // `u64::from_str` accepts a leading '+'; a seed is digits only.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(CliError(format!("{flag}: expected an unsigned integer, got {value:?}")));
    }
    value.parse().map_err(|_| CliError(format!("{flag}: {value:?} does not fit in 64 bits")))
}

/// Parses the arguments after the program name.
pub fn parse<I, S>(args: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_owned();
        let slot_taken = match flag.as_str() {
            "--workload" => workload.is_some(),
            "--seed" => seed.is_some(),
            "--seconds" => seconds.is_some(),
            "--trace" => trace.is_some(),
            "--help" | "-h" => return Err(CliError("help requested".into())),
            other => return Err(CliError(format!("unknown argument {other:?}"))),
        };
        if slot_taken {
            return Err(CliError(format!("{flag} given twice")));
        }
        let Some(value) = it.next() else {
            return Err(CliError(format!("{flag} is missing its value")));
        };
        let value = value.as_ref();
        if value.starts_with("--") {
            return Err(CliError(format!("{flag} is missing its value (got flag {value:?})")));
        }
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| CliError(format!("unknown workload {value:?}")))?,
                )
            }
            "--seed" => seed = Some(parse_u64("--seed", value)?),
            "--seconds" => {
                let s = parse_u64("--seconds", value)?;
                if !(1..=600).contains(&s) {
                    return Err(CliError(format!("--seconds {s} outside 1..=600")));
                }
                seconds = Some(s);
            }
            _ => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(CliError(format!("--trace takes 0 or 1, got {value:?}"))),
                })
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| CliError("--workload is required".into()))?,
        seed: seed.ok_or_else(|| CliError("--seed is required".into()))?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_full_command_line() {
        let args =
            parse(["--workload", "surge", "--seed", "42", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(args, Args { workload: Workload::Surge, seed: 42, seconds: 20, trace: true });
        let args = parse(["--seed", "7", "--workload", "steady"]).unwrap();
        assert_eq!(args.workload, Workload::Steady);
        assert!(!args.trace);
    }

    #[test]
    fn rejects_everything_else() {
        let bad: &[&[&str]] = &[
            &["--help"],
            &["-h"],
            &["--workload", "steady", "--seed", "1", "--verbose"],
            &["--workload", "steady", "--seed"],
            &["--workload", "--seed", "1"],
            &["--workload", "forward", "--seed", "1"],
            &["--workload", "steady", "--seed", "-1"],
            &["--workload", "steady", "--seed", "+1"],
            &["--workload", "steady", "--seed", "0x10"],
            &["--workload", "steady", "--seed", "99999999999999999999999"],
            &["--workload", "steady", "--seed", "1", "--seconds", "0"],
            &["--workload", "steady", "--seed", "1", "--trace", "yes"],
            &["--workload", "steady", "--seed", "1", "--seed", "2"],
            &["--workload", "steady"],
            &["--seed", "1"],
            &["--workload=steady", "--seed", "1"],
            &["steady"],
        ];
        for args in bad {
            assert!(parse(args.iter()).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn rejection_message_carries_the_usage() {
        let err = parse(["--bogus"]).unwrap_err();
        assert!(err.to_string().contains(USAGE));
    }
}
