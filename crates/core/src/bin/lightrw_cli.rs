//! `lightrw-cli` entry point; all logic lives in [`lightrw::cli`].

use std::io::Write as _;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = raw.split_first() else {
        eprintln!("{}", lightrw::cli::usage());
        std::process::exit(2);
    };
    let args = match lightrw::cli::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let written = lightrw::cli::run(sub, &args).and_then(|out| {
        let mut stdout = std::io::stdout().lock();
        match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
            // A closed pipe (`… | head`) is the reader saying it has
            // enough — not a failure, and not `println!`'s panic.
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                Err(format!("cannot write to stdout: {e}"))
            }
            _ => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
