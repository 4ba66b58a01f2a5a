//! `perfbench --workload <serve|churn|cold-start> --seed <n> --seconds <s>
//! --trace <0|1> [--tiny] [--work-dir <dir>]`

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = perfbench::run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
