//! Minimal argument parsing (no external dependency): `--key value`
//! options, repeatable keys, and a leading subcommand.

use std::collections::HashMap;

/// `s` seconds of simulated time, built by `from` (a `from_secs_f64`):
/// an error naming `what`, not a panic, when `s` is negative, NaN or
/// infinite. A span past the end of the clock saturates.
pub fn seconds<T>(what: &str, s: f64, from: fn(f64) -> T) -> Result<T, String> {
    if s >= 0.0 && s.is_finite() {
        Ok(from(s))
    } else {
        Err(format!("{what}: expected a number of seconds >= 0, got {s}"))
    }
}

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Parsed {
    /// The subcommand.
    pub command: String,
    /// Option values, last occurrence wins except for repeatable keys.
    options: HashMap<String, Vec<String>>,
    /// Bare flags present (e.g. `--json`).
    flags: Vec<String>,
}

/// Option keys that take a value.
const VALUED: &[&str] = &[
    "--scenario", "--nodes", "--window", "--future", "--warmup", "--fixed", "--variable",
    "--independent", "--pool", "--start", "-k", "--app", "--pair", "--interval",
    "--duration", "--format", "--repeat", "--batch",
    "--requests", "--tenants", "--count", "--seed", "--deadline", "--kill", "--gap",
    "--rate", "--burst", "--queue-depth", "--shards",
    "--flows", "--synth", "--horizon",
];

/// Bare flags.
const FLAGS: &[&str] = &["--json", "--adaptive", "--dot", "--trace"];

impl Parsed {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, String> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| "missing command (try `remos-sim help`)".to_string())?
            .clone();
        let mut parsed = Parsed { command, ..Parsed::default() };
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                parsed.flags.push(arg.clone());
            } else if VALUED.contains(&arg.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("option {arg} expects a value"))?;
                parsed.options.entry(arg.clone()).or_default().push(v.clone());
            } else {
                return Err(format!("unknown option {arg:?}"));
            }
        }
        Ok(parsed)
    }

    /// Last value of a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).and_then(|v| v.last()).map(String::as_str)
    }

    /// All values of a repeatable key.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.options.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option {key}"))
    }

    /// Flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parse a float option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: not a number: {v:?}")),
        }
    }

    /// Parse a usize option.
    pub fn require_usize(&self, key: &str) -> Result<usize, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("{key}: not an integer"))
    }

    /// Comma-separated list option.
    pub fn get_list(&self, key: &str) -> Result<Vec<String>, String> {
        let v = self.require(key)?;
        let items: Vec<String> =
            v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
        if items.is_empty() {
            return Err(format!("{key}: empty list"));
        }
        Ok(items)
    }
}

/// Parse `src:dst` pairs.
pub fn parse_pair(s: &str) -> Result<(String, String), String> {
    let mut it = s.split(':');
    match (it.next(), it.next(), it.next()) {
        (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => {
            Ok((a.to_string(), b.to_string()))
        }
        _ => Err(format!("expected src:dst, got {s:?}")),
    }
}

/// Parse `src:dst:value` triples.
pub fn parse_pair_value(s: &str) -> Result<(String, String, f64), String> {
    let mut it = s.split(':');
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(a), Some(b), Some(v), None) if !a.is_empty() && !b.is_empty() => {
            let val: f64 = v.parse().map_err(|_| format!("bad number in {s:?}"))?;
            Ok((a.to_string(), b.to_string(), val))
        }
        _ => Err(format!("expected src:dst:value, got {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&argv)
    }

    #[test]
    fn basic_parsing() {
        let p = parse(&["graph", "--scenario", "cmu", "--nodes", "a,b", "--json"]).unwrap();
        assert_eq!(p.command, "graph");
        assert_eq!(p.get("--scenario"), Some("cmu"));
        assert_eq!(p.get_list("--nodes").unwrap(), vec!["a", "b"]);
        assert!(p.flag("--json"));
        assert!(!p.flag("--adaptive"));
    }

    #[test]
    fn repeatable_options() {
        let p = parse(&["flows", "--fixed", "a:b:1", "--fixed", "c:d:2"]).unwrap();
        assert_eq!(p.get_all("--fixed").len(), 2);
        // get() returns the last.
        assert_eq!(p.get("--fixed"), Some("c:d:2"));
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["graph", "--bogus"]).is_err());
        assert!(parse(&["graph", "--nodes"]).is_err());
        let p = parse(&["graph"]).unwrap();
        assert!(p.require("--nodes").is_err());
        assert!(p.get_f64("--warmup", 1.0).unwrap() == 1.0);
    }

    #[test]
    fn pair_parsers() {
        assert_eq!(parse_pair("a:b").unwrap(), ("a".into(), "b".into()));
        assert!(parse_pair("a").is_err());
        assert!(parse_pair("a:b:c").is_err());
        assert!(parse_pair(":b").is_err());
        let (a, b, v) = parse_pair_value("x:y:2.5").unwrap();
        assert_eq!((a.as_str(), b.as_str(), v), ("x", "y", 2.5));
        assert!(parse_pair_value("x:y").is_err());
        assert!(parse_pair_value("x:y:z").is_err());
    }
}
