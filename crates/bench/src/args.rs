//! Minimal command-line handling shared by the experiment binaries.

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpArgs {
    /// Dataset cardinality scale in `(0, 1]`; 1.0 = the paper's sizes.
    pub scale: f64,
    /// Number of queries (paper: 500).
    pub queries: usize,
    /// Neighbor count (paper: 21).
    pub k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Reduced sweep for CI smoke runs (`--smoke`).
    pub smoke: bool,
}

impl ExpArgs {
    /// Parses `--scale F`, `--full`, `--queries N`, `--k N`, `--seed N`,
    /// `--smoke` from the process arguments, starting from the given
    /// defaults.
    pub fn parse(default_scale: f64, default_queries: usize) -> ExpArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        ExpArgs::parse_from(&argv, default_scale, default_queries)
    }

    /// [`ExpArgs::parse`] over an explicit argument list (without the
    /// program name). Integer options must be plain non-negative integers:
    /// a seed keeps all 64 bits, and a sign or fraction is rejected.
    ///
    /// # Panics
    ///
    /// On a missing or malformed value, or a scale outside `(0, 1]`.
    fn parse_from(argv: &[String], default_scale: f64, default_queries: usize) -> ExpArgs {
        let mut out = ExpArgs {
            scale: default_scale,
            queries: default_queries,
            k: 21,
            seed: 20010521, // SIGMOD 2001, May 21
            smoke: false,
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--full" => out.scale = 1.0,
                "--scale" => out.scale = next(argv, &mut i, "--scale", "a number"),
                "--queries" => out.queries = next(argv, &mut i, "--queries", INTEGER),
                "--k" => out.k = next(argv, &mut i, "--k", INTEGER),
                "--seed" => out.seed = next(argv, &mut i, "--seed", INTEGER),
                "--smoke" => out.smoke = true,
                other => {
                    eprintln!("warning: ignoring unknown argument `{other}`");
                }
            }
            i += 1;
        }
        assert!(
            out.scale > 0.0 && out.scale <= 1.0,
            "--scale must lie in (0, 1]"
        );
        out
    }

    fn describe(&self) -> String {
        format!(
            "scale={} queries={} k={} seed={}",
            self.scale, self.queries, self.k, self.seed
        )
    }

    /// Prints the standard experiment header.
    pub fn banner(&self, title: &str) {
        println!("=== {title} ===");
        println!("[{}]", self.describe());
    }
}

const INTEGER: &str = "a non-negative integer";

/// Parses the value after `argv[*i]` as a `T`, panicking with `what` the
/// flag requires when it is missing or malformed.
fn next<T: std::str::FromStr>(argv: &[String], i: &mut usize, flag: &str, what: &str) -> T {
    *i += 1;
    argv.get(*i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{flag} requires {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply() {
        let a = ExpArgs::parse(0.25, 100);
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.queries, 100);
        assert_eq!(a.k, 21);
    }

    fn parse(args: &str) -> std::thread::Result<ExpArgs> {
        let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        std::panic::catch_unwind(|| ExpArgs::parse_from(&argv, 0.5, 100))
    }

    #[test]
    fn integer_options_parse_as_integers() {
        // Above 2^53 a seed routed through f64 would round to ...992.
        let a = parse("--seed 9007199254740993 --queries 7 --k 3 --highdim").unwrap();
        assert_eq!(a.seed, 9_007_199_254_740_993);
        assert_eq!((a.queries, a.k, a.scale), (7, 3, 0.5));
        assert_eq!(parse("--seed 18446744073709551615").unwrap().seed, u64::MAX);
        // A negative count no longer saturates to 0, nor a fraction
        // truncate.
        assert!(parse("--queries -5").is_err());
        assert!(parse("--k 2.7").is_err());
        assert!(parse("--seed 1e3").is_err());
        assert!(parse("--k").is_err());
    }
}
