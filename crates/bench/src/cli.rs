//! Shared CLI argument helpers for the bench binaries.
//!
//! `figures` and `bench_host` both accept `--scale <name>`; the one
//! parser lives here and defers the name set to [`Scale::parse`].

use hic_apps::Scale;

/// Extract `--scale <name>` from `args`, or `default` when the flag is
/// absent. Panics with a usage message on an unknown name — the
/// binaries want the loud failure before any sweep starts.
pub fn parse_scale(args: &[String], default: Scale) -> Scale {
    match args.iter().position(|a| a == "--scale") {
        Some(i) => {
            let v = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            Scale::parse(v).unwrap_or_else(|| {
                panic!("unknown scale {v:?} (use test|small|medium|large|paper)")
            })
        }
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_scale_name() {
        for s in Scale::ALL {
            assert_eq!(parse_scale(&args(&["--scale", s.name()]), Scale::Test), s);
        }
    }

    #[test]
    fn missing_flag_uses_the_default() {
        assert_eq!(parse_scale(&args(&["--inter"]), Scale::Small), Scale::Small);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn unknown_scale_panics() {
        parse_scale(&args(&["--scale", "huge"]), Scale::Test);
    }
}
