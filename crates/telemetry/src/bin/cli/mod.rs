//! Argument parsing shared by the `pmtrace`, `pmtop` and `pmquery`
//! binaries: flags may appear anywhere, and errors name the binary.

/// Removes `flag` and its value from `args`: `None` when the flag is
/// absent, an error when its value is missing or does not parse.
pub fn take_opt<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    let tool = env!("CARGO_BIN_NAME");
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{tool}: {flag} needs a value"));
    }
    let raw = args.remove(pos + 1);
    args.remove(pos);
    raw.parse().map(Some).map_err(|_| format!("{tool}: bad {flag} value: {raw}"))
}

/// Removes `flag` from `args`, returning whether it was there.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}
