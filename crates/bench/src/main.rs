//! `figures`: regenerates the CSTF paper's tables and figures, and the
//! ablations beside them, from one experiment table — run
//! `figures --help` for the rows and their arguments.

fn main() -> std::process::ExitCode {
    cstf_bench::main(std::env::args().skip(1))
}
