//! The `ft-server` process under test and what the benchmark reads
//! from outside it: `/proc` accounting and the `/metrics` export.

use serde::{map_get, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Thread budget pinned on the server: the two vCPUs of the measured host.
pub const EXEC_THREADS: usize = 2;
pub const WORKERS: usize = 2;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// One spawned `ft-server`. Dropping it kills the process and waits
/// for it, so no run leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .env("FT_EXEC_THREADS", EXEC_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Self { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ft-server did not report its address: {line:?}"))
            }
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
    }

    /// User + system CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        parse_stat_cpu(&self.proc_file("stat")?)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line, in seconds. The
/// command name may hold spaces, so fields count from its closing `)`.
fn parse_stat_cpu(stat: &str) -> Result<f64, String> {
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3; utime and stime are 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {i} in /proc stat"))
    };
    Ok((tick(14)? + tick(15)?) / USER_HZ)
}

/// CPU seconds this benchmark process has used so far.
pub fn own_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat_cpu(&stat)
}

/// The host's `(steal, total)` CPU ticks so far, from `/proc/stat`:
/// time the hypervisor ran something else while the guest's vCPUs
/// wanted to run.
pub fn host_steal_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| "bad /proc/stat".to_string()))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`host_steal_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// One `GET /metrics?buckets=1` export: counters and histogram buckets
/// by their exported names.
#[derive(Debug, Clone, Default)]
pub struct MetricsDump {
    pub counters: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Vec<(usize, u64)>>,
}

impl MetricsDump {
    pub fn parse(body: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(body).map_err(|e| format!("/metrics: {e}"))?;
        let entries = value.as_map().ok_or("/metrics is not an object")?;
        let mut dump = Self::default();
        for (name, entry) in entries {
            match entry {
                Value::Num(n) => {
                    dump.counters.insert(name.clone(), *n);
                }
                Value::Map(fields) => {
                    let buckets = map_get(fields, "buckets")
                        .ok()
                        .and_then(Value::as_seq)
                        .ok_or_else(|| format!("/metrics: `{name}` has no buckets"))?;
                    let pairs = buckets
                        .iter()
                        .map(|pair| match pair.as_seq() {
                            Some([i, c]) => Some((i.as_num()? as usize, c.as_num()? as u64)),
                            _ => None,
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| format!("/metrics: malformed buckets in `{name}`"))?;
                    dump.histograms.insert(name.clone(), pairs);
                }
                _ => {}
            }
        }
        Ok(dump)
    }

    /// A counter's value; an error when the export lacks it, so a
    /// renamed counter cannot read as zero.
    pub fn counter(&self, name: &str) -> Result<f64, String> {
        self.counters
            .get(name)
            .copied()
            .ok_or_else(|| format!("/metrics has no counter {name}"))
    }

    pub fn histogram(&self, name: &str) -> &[(usize, u64)] {
        self.histograms.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_closing_paren() {
        let stat = "4242 (ft server) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(parse_stat_cpu(stat).unwrap(), 3.0);
    }

    #[test]
    fn metrics_dump_reads_counters_and_buckets() {
        let body = r#"{"a_total":7,"h_ns":{"count":3,"p50":5,"buckets":[[5,2],[70,1]]}}"#;
        let dump = MetricsDump::parse(body).unwrap();
        assert_eq!(dump.counter("a_total"), Ok(7.0));
        assert!(dump.counter("missing").is_err());
        assert_eq!(dump.histogram("h_ns"), &[(5, 2), (70, 1)]);
        assert!(MetricsDump::parse(r#"{"h":{"count":1}}"#).is_err());
    }
}
