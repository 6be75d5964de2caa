//! `sekitei` — command-line interface to the deployment planner.
//!
//! Run `sekitei help` for the usage of every subcommand and flag; the
//! text lives in `commands::USAGE`.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
