//! Shared helpers for the experiment binaries: throughput measurement,
//! plain-text table rendering, seed plumbing, and machine-readable
//! result emission (`BENCH_*.json`).

use ib_runtime::{Json, Seed, ToJson};
use std::time::Instant;

/// Measure the steady-state throughput of `f` over `message_len`-byte
/// inputs: runs a warmup, then times enough iterations to cover
/// `target_ms` of wall clock. Returns bytes/second.
pub fn measure_throughput(message_len: usize, target_ms: u64, mut f: impl FnMut()) -> f64 {
    // Warmup.
    for _ in 0..32 {
        f();
    }
    let mut iters: u64 = 64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= target_ms {
            return (iters as f64 * message_len as f64) / elapsed.as_secs_f64();
        }
        iters = iters.saturating_mul(4);
    }
}

/// Estimate the CPU clock in Hz by timing a dependent-add spin loop
/// (1 add/cycle on every 64-bit core this runs on). Good to a few percent,
/// which is all the cycles/byte normalization needs.
pub fn estimate_cpu_hz() -> f64 {
    let iters: u64 = 200_000_000;
    let start = Instant::now();
    let mut acc: u64 = 0;
    for i in 0..iters {
        // A dependent chain the compiler cannot vectorize away.
        acc = acc.wrapping_mul(1).wrapping_add(i ^ acc.rotate_left(1));
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    // The loop body is ~3 dependent ops; calibrate empirically as 1 iter ≈
    // 3 cycles. This is a rough but stable estimate.
    iters as f64 * 3.0 / elapsed
}

/// Render rows of (label, values) as an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Assemble the standard experiment result document: experiment name,
/// the seed it reproduces from, the configuration, and the per-point
/// rows — everything a plotting script (or a re-run) needs.
pub fn bench_doc(experiment: &str, seed: Seed, config: Json, points: Vec<Json>) -> Json {
    Json::obj([
        ("experiment", experiment.to_json()),
        ("seed", seed.0.to_json()),
        ("config", config),
        ("points", Json::arr(points)),
    ])
}

/// Write an experiment's result document to `BENCH_<name>.json` in the
/// current directory (deterministic, insertion-ordered output — two
/// same-seed runs produce byte-identical files). Returns the path.
pub fn write_bench_json(name: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

/// Parse `--flag value` style arguments; returns the value following the
/// flag, or `None` if the flag is absent. Panics, naming the flag, when
/// the flag is the last argument: a run must not silently fall back to
/// the default the user meant to override.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"));
    Some(v.clone())
}

/// [`arg_value`] parsed as a `T`; `None` if the flag is absent. Panics,
/// naming the flag, when the value is missing or does not parse.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} {v:?} is not a valid value"))
    })
}

/// Parse a `--seed <u64>` argument (decimal or `0x`-prefixed hex). Falls
/// back to the workspace's fixed default seed, so every experiment binary
/// is reproducible with no arguments and re-runnable from the seed it
/// prints in its header.
pub fn seed_arg(args: &[String]) -> Seed {
    match arg_value(args, "--seed") {
        Some(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            };
            Seed(parsed.unwrap_or_else(|| panic!("--seed {v:?} is not a u64")))
        }
        None => ib_sim::config::SimConfig::default().seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(out.contains("| name"));
        assert!(out.contains("| long-name | 2"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn arg_value_parses() {
        let args: Vec<String> = ["prog", "--load", "0.5", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--load"), Some("0.5".into()));
        assert_eq!(parse_arg::<f64>(&args, "--load"), Some(0.5));
        assert_eq!(arg_value(&args, "--missing"), None);
        assert_eq!(parse_arg::<u64>(&args, "--missing"), None);
    }

    #[test]
    #[should_panic(expected = "--quick needs a value")]
    fn arg_value_panics_on_missing_value() {
        let args: Vec<String> = ["prog", "--load", "0.5", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        arg_value(&args, "--quick");
    }

    #[test]
    #[should_panic(expected = r#"--seeds "abc" is not a valid value"#)]
    fn parse_arg_panics_on_bad_value() {
        let args: Vec<String> = ["prog", "--seeds", "abc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        parse_arg::<u64>(&args, "--seeds");
    }

    #[test]
    fn seed_arg_parses_dec_hex_and_defaults() {
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(seed_arg(&to_args(&["prog", "--seed", "42"])), Seed(42));
        assert_eq!(
            seed_arg(&to_args(&["prog", "--seed", "0xBEEF"])),
            Seed(0xBEEF)
        );
        assert_eq!(
            seed_arg(&to_args(&["prog"])),
            ib_sim::config::SimConfig::default().seed
        );
    }

    #[test]
    fn bench_doc_round_trips() {
        let doc = bench_doc(
            "fig_test",
            Seed(0xABCD),
            Json::obj([("knob", 3u64.to_json())]),
            vec![Json::obj([("x", 1u64.to_json())])],
        );
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("experiment").unwrap().as_str(), Some("fig_test"));
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(0xABCD));
        assert_eq!(back.get("points").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(back, doc, "writer/parser agree");
    }

    #[test]
    fn throughput_positive() {
        let data = vec![0u8; 4096];
        let tp = measure_throughput(4096, 5, || {
            std::hint::black_box(ib_crypto::crc::crc32_ieee(std::hint::black_box(&data)));
        });
        assert!(tp > 1e6, "CRC32 should exceed 1 MB/s, got {tp}");
    }
}
