fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match policysmith_benchmark::cli(&args) {
        Ok(code) => std::process::exit(code),
        Err(why) => {
            eprintln!("psbench: {why}");
            std::process::exit(2);
        }
    }
}
