//! A staged stream pipeline.
//!
//! Stage `i` accepts a connection from stage `i-1`, transforms each
//! item (charging CPU for the transformation), and forwards it to
//! stage `i+1`. The first stage generates items; the last consumes
//! them. Monitoring a pipeline was the motivating shape for the
//! paper's *measurement of parallelism*: once the pipe fills, all
//! stages are busy concurrently, and the trace's `procTime` deltas
//! show it.

use crate::util::{connect_retry, write_line};
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockType, SysError, SysResult};
use std::sync::Arc;

/// Base port; stage `i` (for `i > 0`) listens on `PIPE_PORT + i`.
pub(crate) const PIPE_PORT: u16 = 2100;

/// Pipeline stage: args `[index, n_stages, next_host, n_items,
/// work_ms]`.
///
/// * stage 0 generates `n_items` items and sends them downstream;
/// * stages `1..n-1` listen on `PIPE_PORT + index`, transform, and
///   forward;
/// * stage `n-1` consumes and reports the item count on stdout.
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on bad arguments.
pub(crate) fn stage_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let index: u16 = arg(&args, 0).ok_or(SysError::Einval)?;
    let n_stages: u16 = arg(&args, 1).ok_or(SysError::Einval)?;
    let next_host: String = args.get(2).cloned().unwrap_or_default();
    let n_items: u32 = arg(&args, 3).unwrap_or(20);
    let work_ms: u64 = arg(&args, 4).unwrap_or(2);
    let last = index == n_stages - 1;

    // Upstream side (everyone but stage 0).
    let upstream = if index > 0 {
        let l = p.socket(Domain::Inet, SockType::Stream)?;
        p.bind(l, BindTo::Port(PIPE_PORT + index))?;
        p.listen(l, 1)?;
        let (conn, _) = p.accept(l)?;
        Some(conn)
    } else {
        None
    };

    // Downstream side (everyone but the last stage).
    let downstream = if !last {
        Some(connect_retry(&p, &next_host, PIPE_PORT + index + 1, 300)?)
    } else {
        None
    };

    let mut processed = 0u32;
    if let Some(up) = upstream {
        while let Some(line) = p.read_line(up)? {
            p.compute_ms(work_ms)?;
            processed += 1;
            if let Some(down) = downstream {
                write_line(&p, down, &format!("{line}+s{index}"))?;
            }
        }
        p.close(up)?;
    } else {
        // Stage 0: the generator.
        let down = downstream.ok_or(SysError::Einval)?;
        for i in 0..n_items {
            p.compute_ms(work_ms)?;
            write_line(&p, down, &format!("item{i}"))?;
            processed += 1;
        }
    }
    if let Some(down) = downstream {
        p.close(down)?;
    }
    if last {
        p.write(1, format!("sink got {processed} items\n").as_bytes())?;
    }
    Ok(())
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

/// Registers the stage program and installs `/bin/stage` everywhere.
pub(crate) fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("stage", stage_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/stage", "stage");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    #[test]
    fn three_stage_pipeline_passes_every_item() {
        let c = Cluster::builder()
            .net(NetConfig::lan())
            .seed(6)
            .machine("a")
            .machine("b")
            .machine("c")
            .build();
        register(&c);
        let hosts = ["a", "b", "c"];
        let mut sink = None;
        for i in 0..3u16 {
            let next = if i < 2 { hosts[i as usize + 1] } else { "" };
            let args: Vec<String> = vec![
                i.to_string(),
                "3".into(),
                next.into(),
                "15".into(),
                "1".into(),
            ];
            let pid = c
                .spawn_user(hosts[i as usize], "stage", Uid(1), move |p| {
                    stage_main(p, args)
                })
                .unwrap();
            if i == 2 {
                sink = Some(pid);
            }
        }
        let m = c.machine("c").unwrap();
        let sink = sink.unwrap();
        assert_eq!(m.wait_exit(sink), Some(dpm_meter::TermReason::Normal));
        let out = String::from_utf8_lossy(&m.console_output(sink).unwrap()).into_owned();
        assert_eq!(out.trim(), "sink got 15 items");
        c.shutdown();
    }
}
