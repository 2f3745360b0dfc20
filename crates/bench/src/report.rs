//! Report formatting for the benches — a section banner, a table header —
//! and the JSON experiment log every bench and the claims ledger write.

use std::io;
use std::path::{Path, PathBuf};

use pipemare_telemetry::json::Value;
use pipemare_telemetry::{MetricValue, MetricsSnapshot};

/// A machine-readable record of one experiment run, written alongside the
/// printed tables so results can be post-processed.
#[derive(Clone, Debug, Default)]
pub struct ExperimentLog {
    /// Paper artifact id, e.g. `"fig4"`.
    pub artifact: String,
    /// Named numeric series (curves, table columns).
    pub series: Vec<(String, Vec<f64>)>,
    /// Named scalar results.
    pub scalars: Vec<(String, f64)>,
}

impl ExperimentLog {
    /// Creates an empty log for `artifact`.
    pub fn new(artifact: &str) -> Self {
        ExperimentLog { artifact: artifact.to_string(), ..Default::default() }
    }

    /// Records a named series.
    pub fn push_series(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.series.push((name.to_string(), values.into_iter().collect()));
    }

    /// Records a named scalar.
    pub fn push_scalar(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    /// Reads a log back from its [`ExperimentLog::to_json`] form. `null`,
    /// which is how NaN and ±∞ are written, reads as NaN.
    ///
    /// # Errors
    ///
    /// Names the first entry that is not a name and a number (scalars) or
    /// a name and an array of numbers (series).
    pub fn from_json(log: &Value) -> Result<Self, String> {
        let num = |v: &Value| if *v == Value::Null { Some(f64::NAN) } else { v.as_f64() };
        let entries = |section: &str| {
            let arr = log.get(section).and_then(Value::as_arr);
            let arr = arr.ok_or_else(|| format!("log has no `{section}` array"))?;
            let entry = |e: &Value| match e.as_arr() {
                Some([Value::Str(k), v]) => Ok((k.clone(), v.clone())),
                _ => Err(format!("malformed `{section}` entry")),
            };
            arr.iter().map(entry).collect::<Result<Vec<_>, String>>()
        };
        let bad = |k: &str| format!("non-numeric value in `{k}`");
        let mut out = ExperimentLog::new(log.get("artifact").and_then(Value::as_str).unwrap_or(""));
        for (k, v) in entries("series")? {
            let values = v.as_arr().and_then(|vs| vs.iter().map(num).collect::<Option<_>>());
            out.series.push((k.clone(), values.ok_or_else(|| bad(&k))?));
        }
        for (k, v) in entries("scalars")? {
            out.scalars.push((k.clone(), num(&v).ok_or_else(|| bad(&k))?));
        }
        Ok(out)
    }

    /// Folds a metrics snapshot into the log: counters and gauges become
    /// scalars (`metric.<name>`), histograms become scalar summary stats
    /// (`metric.<name>.{count,mean,p50,p99}`).
    pub fn fold_metrics(&mut self, snapshot: &MetricsSnapshot) {
        for (name, value) in &snapshot.metrics {
            match value {
                MetricValue::Counter(c) => self.push_scalar(&format!("metric.{name}"), *c as f64),
                MetricValue::Gauge(g) => self.push_scalar(&format!("metric.{name}"), *g),
                MetricValue::Histogram(h) => {
                    self.push_scalar(&format!("metric.{name}.count"), h.count as f64);
                    self.push_scalar(&format!("metric.{name}.mean"), h.mean());
                    self.push_scalar(&format!("metric.{name}.p50"), h.quantile(0.5));
                    self.push_scalar(&format!("metric.{name}.p99"), h.quantile(0.99));
                }
            }
        }
    }

    /// The directory experiment logs are written to:
    /// `$PIPEMARE_EXPERIMENTS_DIR` when set and non-empty, else
    /// `target/experiments`.
    pub fn experiments_dir() -> PathBuf {
        std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/experiments"))
    }

    /// JSON rendering of the log.
    pub fn to_json(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|(name, values)| {
                let vals: Vec<Value> = values.iter().map(|&v| Value::from(v)).collect();
                Value::Arr(vec![Value::from(name.as_str()), Value::Arr(vals)])
            })
            .collect();
        let scalars = self
            .scalars
            .iter()
            .map(|(name, v)| Value::Arr(vec![Value::from(name.as_str()), Value::from(*v)]))
            .collect();
        Value::obj()
            .set("artifact", self.artifact.as_str())
            .set("series", Value::Arr(series))
            .set("scalars", Value::Arr(scalars))
    }

    /// Writes the log as JSON to [`ExperimentLog::experiments_dir`]`/<artifact>.json`
    /// and returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the directory is created if missing).
    pub fn save(&self) -> io::Result<PathBuf> {
        self.save_in(&Self::experiments_dir())
    }

    /// Writes the log as JSON under an explicit directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the directory is created if missing).
    pub fn save_in(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.artifact));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }
}

/// Prints a section banner naming the paper artifact being regenerated.
pub fn banner(artifact: &str, description: &str) {
    println!("\n================================================================");
    println!("{artifact}: {description}");
    println!("================================================================");
}

/// Prints a table header row followed by a separator.
pub fn table_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$} ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}
