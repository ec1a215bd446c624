//! `radio-cli` — run the paper's algorithms from the shell.
//!
//! ```text
//! radio-cli run       --n 10000 --d 50 --protocol eg [--trials 5] [--loss 0.1] [--seed 1]
//!                     [--format text|json] [--trace-out FILE.jsonl] [--kernel auto|sparse|dense]
//!                     [--batch L] [--backend auto|explicit|implicit|sharded]
//! radio-cli schedule  --n 10000 --d 50 [--source 0] [--seed 1]
//! radio-cli structure --n 50000 --d 40 [--seed 1]
//! radio-cli gossip    --n 1000  --d 30 [--seed 1]
//! radio-cli lower     --n 4096  --d 60 [--trials 500] [--seed 1]
//! ```
//!
//! Every subcommand samples `G(n, p)` with `p = d/n` (or takes `--p`
//! directly), runs the requested computation, and prints a human-readable
//! report.  Deterministic given `--seed`.

mod args;
mod commands;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print_usage();
        return;
    }
    // `radio-cli bench ...` forwards to the experiment registry driver, so
    // one front end reaches both the algorithm runners and the experiment
    // suite.  Everything after `bench` is registry syntax (list/run/all).
    if argv[0] == "bench" {
        radio_bench::registry::cli_main(argv[1..].to_vec());
        return;
    }
    // `radio-cli node ...` forwards to the message-passing broadcast
    // service (workload driver + stdio node), same pattern as `bench`.
    if argv[0] == "node" {
        radio_node::cli::cli_main(argv[1..].to_vec());
        return;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            std::process::exit(2);
        }
    };
    let result = match args.subcommand() {
        "run" => commands::run(&args),
        "schedule" => commands::schedule(&args),
        "replay" => commands::replay(&args),
        "structure" => commands::structure(&args),
        "gossip" => commands::gossip(&args),
        "lower" => commands::lower(&args),
        other => Err(args::ParseError(format!("unknown subcommand {other}"))),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn print_usage() {
    println!(
        "radio-cli — radio broadcasting in random graphs (Elsässer–Gąsieniec, SPAA'05)

graph selection (run / schedule / structure): --n N (--d D | --p P) to sample
G(n, p), or --graph FILE to load a fixed edge-list topology.

subcommands:
  run        run a distributed protocol          [graph] [--protocol eg|eg-strict|decay|flooding|round-robin|unknown|constant:Q]
                                                 [--source V] [--trials K] [--loss F] [--max-rounds R] [--seed S]
                                                 [--format text|json] [--trace-out FILE.jsonl]
                                                 [--kernel auto|sparse|dense] [--batch L]
                                                 [--backend auto|explicit|implicit|sharded]
             (--batch L runs L ≤ 1024 lane-batched trials per graph sample
              on the multithreaded tiled engine, L ≤ 64 on provider backends;
              --kernel picks the scalar round kernel of unbatched runs;
              --backend implicit regenerates G(n, p) from the seed with no
              adjacency in memory, sharded splits rows across RADIO_THREADS,
              auto picks implicit when adjacency would blow the bitmap cap)
  schedule   build the Theorem-5 schedule        [graph] [--source V] [--seed S] [--verbose] [--save FILE]
  replay     verify + replay a saved schedule    [graph] --schedule FILE [--source V] [--seed S]
  structure  BFS layer + degree structure        [graph] [--seed S]
  gossip     all-to-all radio gossiping          --n N (--d D | --p P) [--trials K] [--seed S]
  lower      sample lower-bound schedules        --n N (--d D | --p P) [--trials K] [--seed S]
  bench      experiment registry driver          bench list | bench run NAME... | bench all
             (same flags as radio-bench; see `radio-cli bench list`)
  node       message-passing broadcast service   node workload --nodes N [--partition FROM:LEN]
             (event-loop cluster with fault injection; see `radio-cli node --help`)

examples:
  radio-cli run --n 10000 --d 50 --protocol eg --trials 5
  radio-cli schedule --n 20000 --d 60 --verbose
  radio-cli lower --n 4096 --d 60 --trials 1000"
    );
}
