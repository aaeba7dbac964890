//! Hand-rolled argument parsing (the approved dependency list has no
//! CLI parser; the grammar is small enough that one is not missed).

use std::error::Error;
use std::fmt;
use wcds_service::Mutation;

/// A CLI failure: bad arguments, I/O, or command-level errors.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// Deployment models of `wcds generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Uniform random in a square.
    Uniform,
    /// Gaussian clusters.
    Clustered,
    /// Jittered grid.
    Grid,
    /// A chain (the adversarial worst case).
    Chain,
}

/// Construction algorithms selectable on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm I (level-ranked MIS).
    Algo1,
    /// Algorithm II (localized MIS + bridges).
    Algo2,
    /// Chen–Liestman greedy WCDS.
    GreedyWcds,
    /// Guha–Khuller-style greedy CDS.
    GreedyCds,
    /// Wu–Li marking CDS.
    WuLi,
    /// MIS + spanning-tree connectors CDS.
    MisTree,
}

impl Algo {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "algo1" | "algorithm-1" => Ok(Algo::Algo1),
            "algo2" | "algorithm-2" => Ok(Algo::Algo2),
            "greedy-wcds" => Ok(Algo::GreedyWcds),
            "greedy-cds" => Ok(Algo::GreedyCds),
            "wu-li" => Ok(Algo::WuLi),
            "mis-tree" | "mis-tree-cds" => Ok(Algo::MisTree),
            other => Err(CliError(format!(
                "unknown algorithm `{other}` (try algo1, algo2, greedy-wcds, greedy-cds, wu-li, mis-tree)"
            ))),
        }
    }
}

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `wcds generate` — create a deployment and write the graph file.
    Generate {
        /// Deployment model.
        model: Model,
        /// Node count.
        n: usize,
        /// Region side length.
        side: f64,
        /// RNG seed.
        seed: u64,
        /// Output path (`-` = stdout).
        output: String,
    },
    /// `wcds stats` — topology metrics.
    Stats {
        /// Input graph file.
        input: String,
    },
    /// `wcds construct` — run a WCDS construction.
    Construct {
        /// Input graph file.
        input: String,
        /// Algorithm choice.
        algo: Algo,
        /// Apply the minimality pruning pass.
        prune: bool,
    },
    /// `wcds validate` — check DS/WCDS/CDS properties of a node set.
    Validate {
        /// Input graph file.
        input: String,
        /// The candidate node set.
        set: Vec<usize>,
    },
    /// `wcds route` — clusterhead-route one packet.
    Route {
        /// Input graph file.
        input: String,
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// `wcds compare` — run every construction on one input and print
    /// a comparison table.
    Compare {
        /// Input graph file.
        input: String,
    },
    /// `wcds render` — draw the network (and optionally a backbone) as
    /// SVG.
    Render {
        /// Input graph file (must contain `point` lines).
        input: String,
        /// Construction whose backbone to overlay (`None` = plain UDG).
        algo: Option<Algo>,
        /// Output SVG path (`-` = stdout).
        output: String,
    },
    /// `wcds simulate` — run a distributed construction, with reports.
    Simulate {
        /// Input graph file.
        input: String,
        /// `algo1` or `algo2` (the distributed protocols).
        algo: Algo,
        /// Asynchronous schedule seed (synchronous when absent).
        async_seed: Option<u64>,
    },
    /// `wcds serve` — run the backbone service until a wire shutdown.
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Executor-pool size (threads for mutations and cache rebuilds).
        workers: usize,
    },
    /// `wcds query` — request(s) against a running server.
    Query {
        /// Server address.
        addr: String,
        /// The action to perform.
        action: QueryAction,
        /// How many times to issue the request.
        repeat: u64,
        /// Send all repeats as one pipelined burst (one write, then
        /// drain the responses in order) instead of round-tripping.
        pipeline: bool,
    },
    /// `wcds help` / no arguments.
    Help,
}

/// One `wcds query` action (one request/response round trip).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAction {
    /// Liveness probe.
    Ping,
    /// Ingest a topology from a graph file.
    Create {
        /// Topology name.
        name: String,
        /// Graph file to upload.
        input: String,
    },
    /// Download the current topology as graph text.
    Export {
        /// Topology name.
        name: String,
        /// Output path (`-` = stdout).
        output: String,
    },
    /// Force the WCDS/spanner/routing bundle to be built.
    Construct {
        /// Topology name.
        name: String,
    },
    /// Clusterhead-route one packet.
    Route {
        /// Topology name.
        name: String,
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// Simulate a backbone broadcast.
    Broadcast {
        /// Topology name.
        name: String,
        /// Broadcast source.
        source: usize,
    },
    /// Topology + cache statistics.
    Stats {
        /// Topology name.
        name: String,
    },
    /// Apply one maintenance mutation.
    Mutate {
        /// Topology name.
        name: String,
        /// The mutation (`--join X,Y`, `--leave N`, or `--move N,X,Y`).
        mutation: Mutation,
    },
    /// List stored topologies.
    List,
    /// Remove a topology.
    Drop {
        /// Topology name.
        name: String,
    },
    /// Upgrade a topology to a (k, m)-resilient backbone.
    Harden {
        /// Topology name.
        name: String,
        /// Target core connectivity.
        k: u64,
        /// Target coverage multiplicity.
        m: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Usage text.
pub const USAGE: &str = "\
wcds — weakly-connected dominating sets and sparse spanners (ICDCS 2003)

USAGE:
  wcds generate  --model uniform|clustered|grid|chain --n N [--side S] [--seed K] -o FILE
  wcds stats     -i FILE
  wcds construct -i FILE --algo algo1|algo2|greedy-wcds|greedy-cds|wu-li|mis-tree [--prune]
  wcds validate  -i FILE --set 0,5,9
  wcds route     -i FILE --from A --to B
  wcds compare   -i FILE
  wcds render    -i FILE [--algo ALGO] -o FILE.svg
  wcds simulate  -i FILE --algo algo1|algo2 [--async-seed K]
  wcds serve     [--addr HOST:PORT] [--workers N]
  wcds query     ACTION --addr HOST:PORT [--repeat N] [--pipeline] [action flags]
  wcds help

QUERY ACTIONS:
  ping | list | shutdown
  create    --name T -i FILE
  export    --name T [-o FILE]
  construct --name T
  route     --name T --from A --to B
  broadcast --name T --source S
  stats     --name T
  mutate    --name T  --join X,Y | --leave N | --move N,X,Y
  harden    --name T --k K --m M
";

/// Looks flags up in a subcommand's arguments and records each
/// position a lookup consumed, so [`ArgScanner::finish`] can reject
/// the arguments no lookup read.
struct ArgScanner<'a> {
    argv: &'a [String],
    consumed: Vec<bool>,
}

impl<'a> ArgScanner<'a> {
    fn new(argv: &'a [String]) -> Self {
        Self { argv, consumed: vec![false; argv.len()] }
    }

    fn consume(&mut self, pos: usize) {
        if let Some(c) = self.consumed.get_mut(pos) {
            *c = true;
        }
    }

    /// The value after `flag`; consumes both.
    fn value_of(&mut self, flag: &str) -> Option<&'a str> {
        let pos = self.argv.iter().position(|a| a == flag)?;
        let value = self.argv.get(pos + 1)?;
        self.consume(pos);
        self.consume(pos + 1);
        Some(value)
    }

    fn has_flag(&mut self, flag: &str) -> bool {
        let pos = self.argv.iter().position(|a| a == flag);
        if let Some(pos) = pos {
            self.consume(pos);
        }
        pos.is_some()
    }

    /// Fails on the first argument that no lookup consumed.
    fn finish(&self, sub: &str) -> Result<(), CliError> {
        match self.consumed.iter().zip(self.argv).find(|(&c, _)| !c) {
            Some((_, arg)) => {
                Err(CliError(format!("unexpected argument `{arg}` for `wcds {sub}`")))
            }
            None => Ok(()),
        }
    }
}

fn required<'a>(s: &mut ArgScanner<'a>, flag: &str) -> Result<&'a str, CliError> {
    s.value_of(flag).ok_or_else(|| CliError(format!("missing required argument {flag}")))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, CliError> {
    raw.parse().map_err(|_| CliError(format!("invalid value `{raw}` for {flag}")))
}

/// Parses an argument vector (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a usage-style message on malformed input.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    let rest = &argv[1..];
    let mut s = ArgScanner::new(rest);
    let cmd = match sub.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "generate" => {
            let model = match required(&mut s, "--model")? {
                "uniform" => Model::Uniform,
                "clustered" => Model::Clustered,
                "grid" => Model::Grid,
                "chain" => Model::Chain,
                other => return Err(CliError(format!("unknown model `{other}`"))),
            };
            let n = parse_num(required(&mut s, "--n")?, "--n")?;
            let side: f64 = match s.value_of("--side") {
                Some(v) => parse_num(v, "--side")?,
                None => 8.0,
            };
            // a NaN, infinite or non-positive side writes points the
            // parser rejects, or a deployment outside the first quadrant
            if !(side.is_finite() && side > 0.0) {
                return Err(CliError(format!("--side must be finite and positive, got {side}")));
            }
            let seed = match s.value_of("--seed") {
                Some(v) => parse_num(v, "--seed")?,
                None => 0,
            };
            let output = required(&mut s, "-o")?.to_string();
            Ok(Command::Generate { model, n, side, seed, output })
        }
        "stats" => Ok(Command::Stats { input: required(&mut s, "-i")?.to_string() }),
        "construct" => Ok(Command::Construct {
            input: required(&mut s, "-i")?.to_string(),
            algo: Algo::parse(required(&mut s, "--algo")?)?,
            prune: s.has_flag("--prune"),
        }),
        "validate" => {
            let input = required(&mut s, "-i")?.to_string();
            let raw = required(&mut s, "--set")?;
            let set = raw
                .split(',')
                .filter(|t| !t.is_empty())
                .map(|t| parse_num(t.trim(), "--set"))
                .collect::<Result<Vec<usize>, _>>()?;
            if set.is_empty() {
                return Err(CliError("--set must list at least one node".into()));
            }
            Ok(Command::Validate { input, set })
        }
        "route" => Ok(Command::Route {
            input: required(&mut s, "-i")?.to_string(),
            from: parse_num(required(&mut s, "--from")?, "--from")?,
            to: parse_num(required(&mut s, "--to")?, "--to")?,
        }),
        "compare" => Ok(Command::Compare { input: required(&mut s, "-i")?.to_string() }),
        "render" => {
            let input = required(&mut s, "-i")?.to_string();
            let algo = match s.value_of("--algo") {
                Some(v) => Some(Algo::parse(v)?),
                None => None,
            };
            let output = required(&mut s, "-o")?.to_string();
            Ok(Command::Render { input, algo, output })
        }
        "simulate" => {
            let input = required(&mut s, "-i")?.to_string();
            let algo = Algo::parse(required(&mut s, "--algo")?)?;
            if !matches!(algo, Algo::Algo1 | Algo::Algo2) {
                return Err(CliError("simulate supports only algo1 and algo2".into()));
            }
            let async_seed = match s.value_of("--async-seed") {
                Some(v) => Some(parse_num(v, "--async-seed")?),
                None => None,
            };
            Ok(Command::Simulate { input, algo, async_seed })
        }
        "serve" => {
            let addr = s.value_of("--addr").unwrap_or("127.0.0.1:7700").to_string();
            let workers = match s.value_of("--workers") {
                Some(v) => parse_num(v, "--workers")?,
                None => 4,
            };
            if workers == 0 {
                return Err(CliError("--workers must be at least 1".into()));
            }
            Ok(Command::Serve { addr, workers })
        }
        "query" => {
            let action_name = rest
                .first()
                .ok_or_else(|| CliError(format!("query needs an action\n\n{USAGE}")))?;
            s.consume(0);
            let addr = s.value_of("--addr").unwrap_or("127.0.0.1:7700").to_string();
            let action = parse_query_action(action_name, &mut s)?;
            let repeat = match s.value_of("--repeat") {
                Some(v) => parse_num(v, "--repeat")?,
                None => 1,
            };
            if repeat == 0 {
                return Err(CliError("--repeat must be at least 1".into()));
            }
            let pipeline = s.has_flag("--pipeline");
            Ok(Command::Query { addr, action, repeat, pipeline })
        }
        other => Err(CliError(format!("unknown subcommand `{other}`\n\n{USAGE}"))),
    }?;
    s.finish(sub)?;
    Ok(cmd)
}

/// Parses the numbers of `--join X,Y` / `--move N,X,Y` style values.
fn parse_csv<T: std::str::FromStr>(raw: &str, flag: &str, want: usize) -> Result<Vec<T>, CliError> {
    let parts: Vec<&str> = raw.split(',').map(str::trim).collect();
    if parts.len() != want {
        return Err(CliError(format!(
            "{flag} expects {want} comma-separated values, got `{raw}`"
        )));
    }
    parts.iter().map(|p| parse_num(p, flag)).collect()
}

fn parse_query_action(name: &str, s: &mut ArgScanner<'_>) -> Result<QueryAction, CliError> {
    let named = |s: &mut ArgScanner<'_>| -> Result<String, CliError> {
        Ok(required(s, "--name")?.to_string())
    };
    match name {
        "ping" => Ok(QueryAction::Ping),
        "list" => Ok(QueryAction::List),
        "shutdown" => Ok(QueryAction::Shutdown),
        "create" => Ok(QueryAction::Create {
            name: named(s)?,
            input: required(s, "-i")?.to_string(),
        }),
        "export" => Ok(QueryAction::Export {
            name: named(s)?,
            output: s.value_of("-o").unwrap_or("-").to_string(),
        }),
        "construct" => Ok(QueryAction::Construct { name: named(s)? }),
        "route" => Ok(QueryAction::Route {
            name: named(s)?,
            from: parse_num(required(s, "--from")?, "--from")?,
            to: parse_num(required(s, "--to")?, "--to")?,
        }),
        "broadcast" => Ok(QueryAction::Broadcast {
            name: named(s)?,
            source: parse_num(required(s, "--source")?, "--source")?,
        }),
        "stats" => Ok(QueryAction::Stats { name: named(s)? }),
        "drop" => Ok(QueryAction::Drop { name: named(s)? }),
        "harden" => Ok(QueryAction::Harden {
            name: named(s)?,
            k: parse_num(required(s, "--k")?, "--k")?,
            m: parse_num(required(s, "--m")?, "--m")?,
        }),
        "mutate" => {
            let name = named(s)?;
            let mutation = if let Some(raw) = s.value_of("--join") {
                let xy: Vec<f64> = parse_csv(raw, "--join", 2)?;
                Mutation::Join { x: xy[0], y: xy[1] }
            } else if let Some(raw) = s.value_of("--leave") {
                Mutation::Leave { node: parse_num(raw, "--leave")? }
            } else if let Some(raw) = s.value_of("--move") {
                let node: usize = parse_num(
                    raw.split(',').next().unwrap_or_default().trim(),
                    "--move",
                )?;
                let rest: Vec<&str> = raw.split(',').skip(1).map(str::trim).collect();
                if rest.len() != 2 {
                    return Err(CliError(format!(
                        "--move expects N,X,Y, got `{raw}`"
                    )));
                }
                Mutation::Move {
                    node,
                    x: parse_num(rest[0], "--move")?,
                    y: parse_num(rest[1], "--move")?,
                }
            } else {
                return Err(CliError(
                    "mutate needs one of --join X,Y / --leave N / --move N,X,Y".into(),
                ));
            };
            Ok(QueryAction::Mutate { name, mutation })
        }
        other => Err(CliError(format!(
            "unknown query action `{other}` (try ping, create, export, construct, route, broadcast, stats, mutate, harden, list, drop, shutdown)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn generate_with_defaults() {
        let cmd = parse(&argv("generate --model uniform --n 50 -o out.graph")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                model: Model::Uniform,
                n: 50,
                side: 8.0,
                seed: 0,
                output: "out.graph".into()
            }
        );
    }

    #[test]
    fn generate_with_all_flags() {
        let cmd =
            parse(&argv("generate --model chain --n 9 --side 3.5 --seed 7 -o -")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                model: Model::Chain,
                n: 9,
                side: 3.5,
                seed: 7,
                output: "-".into()
            }
        );
    }

    #[test]
    fn construct_parses_algos_and_prune() {
        let cmd = parse(&argv("construct -i x.graph --algo algo2 --prune")).unwrap();
        assert_eq!(cmd, Command::Construct { input: "x.graph".into(), algo: Algo::Algo2, prune: true });
        for (name, want) in [
            ("algo1", Algo::Algo1),
            ("greedy-wcds", Algo::GreedyWcds),
            ("greedy-cds", Algo::GreedyCds),
            ("wu-li", Algo::WuLi),
            ("mis-tree", Algo::MisTree),
        ] {
            let cmd = parse(&argv(&format!("construct -i x --algo {name}"))).unwrap();
            match cmd {
                Command::Construct { algo, prune, .. } => {
                    assert_eq!(algo, want);
                    assert!(!prune);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn validate_parses_comma_set() {
        let cmd = parse(&argv("validate -i x --set 1,2,9")).unwrap();
        assert_eq!(cmd, Command::Validate { input: "x".into(), set: vec![1, 2, 9] });
    }

    #[test]
    fn route_and_simulate() {
        assert_eq!(
            parse(&argv("route -i x --from 3 --to 8")).unwrap(),
            Command::Route { input: "x".into(), from: 3, to: 8 }
        );
        assert_eq!(
            parse(&argv("simulate -i x --algo algo1 --async-seed 5")).unwrap(),
            Command::Simulate { input: "x".into(), algo: Algo::Algo1, async_seed: Some(5) }
        );
    }

    #[test]
    fn serve_and_query_parse() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve { addr: "127.0.0.1:7700".into(), workers: 4 }
        );
        assert_eq!(
            parse(&argv("serve --addr 0.0.0.0:9000 --workers 8")).unwrap(),
            Command::Serve { addr: "0.0.0.0:9000".into(), workers: 8 }
        );
        assert_eq!(
            parse(&argv("query ping --addr 127.0.0.1:7701")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7701".into(),
                action: QueryAction::Ping,
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query create --addr h:1 --name net -i f.graph")).unwrap(),
            Command::Query {
                addr: "h:1".into(),
                action: QueryAction::Create { name: "net".into(), input: "f.graph".into() },
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query route --name net --from 0 --to 9")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Route { name: "net".into(), from: 0, to: 9 },
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query mutate --name net --join 1.5,2.5")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Mutate {
                    name: "net".into(),
                    mutation: Mutation::Join { x: 1.5, y: 2.5 }
                },
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query mutate --name net --move 4,0.5,0.25")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Mutate {
                    name: "net".into(),
                    mutation: Mutation::Move { node: 4, x: 0.5, y: 0.25 }
                },
                repeat: 1,
                pipeline: false
            }
        );
        // a negative value is consumed as the flag's value
        assert_eq!(
            parse(&argv("query mutate --name n --join -1,2")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Mutate {
                    name: "n".into(),
                    mutation: Mutation::Join { x: -1.0, y: 2.0 }
                },
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query mutate --name net --leave 7")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Mutate {
                    name: "net".into(),
                    mutation: Mutation::Leave { node: 7 }
                },
                repeat: 1,
                pipeline: false
            }
        );
        assert_eq!(
            parse(&argv("query ping --repeat 32 --pipeline")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7700".into(),
                action: QueryAction::Ping,
                repeat: 32,
                pipeline: true
            }
        );
    }

    #[test]
    fn serve_and_query_errors() {
        assert!(parse(&argv("serve --workers 0")).unwrap_err().0.contains("--workers"));
        // one serving engine: an engine choice is an unknown flag
        assert!(parse(&argv("serve --engine worker-pool")).unwrap_err().0.contains("`--engine`"));
        assert!(parse(&argv("serve --wokers 8")).unwrap_err().0.contains("`--wokers`"));
        // a repeated flag's second copy is never read, and a flag
        // missing its value is not consumed either
        assert!(parse(&argv("serve --workers 2 --workers 3")).unwrap_err().0.contains("`--workers`"));
        assert!(parse(&argv("serve --addr")).unwrap_err().0.contains("`--addr`"));
        assert!(parse(&argv("query ping extra")).unwrap_err().0.contains("`extra`"));
        assert!(parse(&argv("query ping --repeat 0")).unwrap_err().0.contains("--repeat"));
        assert!(parse(&argv("query")).unwrap_err().0.contains("action"));
        assert!(parse(&argv("query frob")).unwrap_err().0.contains("frob"));
        assert!(parse(&argv("query mutate --name n")).unwrap_err().0.contains("--join"));
        assert!(parse(&argv("query mutate --name n --join 1")).unwrap_err().0.contains("--join"));
        assert!(parse(&argv("query mutate --name n --move 1,2")).unwrap_err().0.contains("--move"));
        assert!(parse(&argv("query route --name n --from 0")).unwrap_err().0.contains("--to"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&argv("generate --model nope --n 5 -o x")).unwrap_err().0.contains("nope"));
        assert!(parse(&argv("construct -i x --algo bogus")).unwrap_err().0.contains("bogus"));
        assert!(parse(&argv("frobnicate")).unwrap_err().0.contains("frobnicate"));
        assert!(parse(&argv("generate --model uniform -o x")).unwrap_err().0.contains("--n"));
        assert!(parse(&argv("simulate -i x --algo wu-li")).unwrap_err().0.contains("algo1"));
        assert!(parse(&argv("validate -i x --set ,")).is_err());
        assert!(parse(&argv("route -i x --from a --to 2")).unwrap_err().0.contains("--from"));
        // an argument no lookup reads is named, not ignored
        let err = parse(&argv("stats -i g.graph --frob")).unwrap_err().0;
        assert!(err.contains("`--frob`") && err.contains("stats"), "{err}");
        let err = parse(&argv("route -i x --from 1 --to 2 stray --via 3")).unwrap_err().0;
        assert!(err.contains("`stray`"), "{err}");
    }
}
