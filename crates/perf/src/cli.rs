//! The command-line policy every workspace binary shares.
//!
//! A binary names the value flags and bool flags of the subcommand it
//! runs; [`parse`] reads the arguments into an [`Args`] of flags and
//! positionals. Every mistake is an `Err` naming its culprit, which the
//! binary reports with exit status 2 ([`usage_error`]):
//!
//! * an unknown flag (any argument starting with `-` that is not named);
//! * a flag given more than once;
//! * a value flag with no value (at the end, or followed by a `--` flag);
//! * a malformed value ([`Args::value`], [`Args::value_with`]);
//! * a positional beyond what the subcommand takes ([`Args::positionals`]).
//!
//! [`parse_seed`] is the strict seed grammar: `0x`-prefixed hex or
//! decimal.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line: flag -> value (`""` for a bool flag) plus the
/// positionals in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positionals: Vec<String>,
}

/// Reads `args` against the subcommand's `values` (flags that take a
/// value) and `bools` (flags that do not).
pub fn parse(args: &[String], values: &[&str], bools: &[&str]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            out.positionals.push(arg.clone());
            continue;
        }
        let value = if bools.contains(&arg.as_str()) {
            String::new()
        } else if values.contains(&arg.as_str()) {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("{arg} needs a value")),
            }
        } else {
            return Err(format!("unknown flag {arg:?}"));
        };
        if out.flags.insert(arg.clone(), value).is_some() {
            return Err(format!("{arg} is given more than once"));
        }
    }
    Ok(out)
}

/// Reports a bad command line of binary `bin` and exits with status 2.
pub fn usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

/// The strict seed grammar: `0x`-prefixed hex or decimal.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
    .ok_or_else(|| "not a decimal or 0x-hex number".to_string())
}

impl Args {
    /// Whether bool flag `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The raw value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The value of `flag` read by `read`; a value `read` rejects is an
    /// error naming the flag, the value and `read`'s reason.
    pub fn value_with<T>(
        &self,
        flag: &str,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| read(v).map_err(|e| format!("{flag} {v:?}: {e}")))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value_with(flag, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// The first positional: the subcommand of a binary that has them.
    pub fn command(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// The positionals, when there are at most `max` of them.
    pub fn positionals(&self, max: usize) -> Result<&[String], String> {
        match self.positionals.get(max) {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(&self.positionals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, &["--pes", "--seed"], &["--stats"])
    }

    #[test]
    fn flags_and_positionals_are_read_in_any_order() {
        let a = run(&["fig6", "--pes", "4", "--stats", "x"]).unwrap();
        assert_eq!(a.value::<u32>("--pes"), Ok(Some(4)));
        assert_eq!(a.value::<u32>("--seed"), Ok(None));
        assert!(a.has("--stats"));
        assert!(!a.has("--seed"));
        assert_eq!(a.command(), Some("fig6"));
        assert_eq!(a.positionals(2).unwrap(), ["fig6", "x"]);
        let none = run(&[]).unwrap();
        assert_eq!(none.command(), None);
        assert!(none.positionals(0).unwrap().is_empty());
    }

    #[test]
    fn an_unknown_flag_is_named() {
        assert_eq!(run(&["--pe", "4"]), Err("unknown flag \"--pe\"".into()));
        assert_eq!(run(&["-x"]), Err("unknown flag \"-x\"".into()));
    }

    #[test]
    fn a_repeated_flag_is_named() {
        let e = "--pes is given more than once";
        assert_eq!(run(&["--pes", "2", "--pes", "abc"]), Err(e.into()));
        let e = "--stats is given more than once";
        assert_eq!(run(&["--stats", "--stats"]), Err(e.into()));
    }

    #[test]
    fn a_missing_value_is_named() {
        assert_eq!(run(&["--pes"]), Err("--pes needs a value".into()));
        let e = "--pes needs a value";
        assert_eq!(run(&["--pes", "--stats"]), Err(e.into()));
    }

    #[test]
    fn a_malformed_value_names_flag_and_value() {
        let a = run(&["--pes", "abc"]).unwrap();
        let e = a.value::<u32>("--pes").unwrap_err();
        assert!(e.starts_with("--pes \"abc\": "), "{e}");
        let a = run(&["--seed", "0xzz"]).unwrap();
        let e = a.value_with("--seed", parse_seed).unwrap_err();
        assert_eq!(e, "--seed \"0xzz\": not a decimal or 0x-hex number");
    }

    #[test]
    fn an_extra_positional_is_named() {
        let a = run(&["seed", "1", "extra"]).unwrap();
        assert_eq!(a.positionals(3).unwrap().len(), 3);
        let e = "unexpected argument \"extra\"";
        assert_eq!(a.positionals(2), Err(e.into()));
    }

    #[test]
    fn seeds_are_hex_or_decimal() {
        assert_eq!(parse_seed("0x10"), Ok(16));
        assert_eq!(parse_seed("16"), Ok(16));
        assert_eq!(parse_seed("0xff"), parse_seed("255"));
        for bad in ["0xzz", "abc", "", "0x", "-1", "0XFF"] {
            assert!(parse_seed(bad).is_err(), "{bad}");
        }
    }
}
