//! The `wcds` command-line tool; all logic lives in the library so it
//! can be unit-tested (see `wcds_cli::run`).
//!
//! Exit status: 0 on success, 1 when a well-formed command fails, 2 on
//! a usage error (an unknown subcommand, flag or malformed value).

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match wcds_cli::args::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match wcds_cli::commands::execute(cmd) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
