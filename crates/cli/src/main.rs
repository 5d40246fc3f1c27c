//! The `swa` command-line tool; all logic lives in the library so it can
//! be tested without spawning processes.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = swa_cli::run(&args);
    for (path, contents) in &outcome.files {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if outcome.exit_code == 1 {
        eprint!("{}", outcome.stdout);
    } else {
        print!("{}", outcome.stdout);
    }
    std::process::exit(outcome.exit_code);
}
