//! Small helpers shared by the workload programs.

use dpm_simos::{connect_backoff, Backoff, Fd, Proc, SysResult};

/// Connects a fresh stream socket to `(host, port)`, retrying while
/// the server side is still coming up — the standard dance for a
/// computation whose processes all start at once (`startjob` starts
/// every process; nothing orders server `listen` before client
/// `connect`). Built on the shared bounded-backoff policy
/// ([`dpm_simos::Backoff`]) rather than a fixed-interval spin: delays
/// double from 5 ms up to a cap, so a late server is found quickly and
/// a dead one is reported after at most `tries` attempts.
///
/// # Errors
///
/// `ECONNREFUSED` after `tries` attempts; other errors immediately.
pub fn connect_retry(p: &Proc, host: &str, port: u16, tries: u32) -> SysResult<Fd> {
    connect_backoff(p, host, port, Backoff::new(tries, 5, 160))
}

/// Receives on a socket with a virtual-time deadline: polls
/// non-blocking reads, advancing virtual time between polls so that
/// timeouts make progress even when every process is waiting (the
/// discrete-event equivalent of an alarm clock). Returns `None` on
/// timeout.
///
/// # Errors
///
/// Read errors propagate.
pub fn read_timeout(p: &Proc, fd: Fd, max: usize, timeout_ms: u64) -> SysResult<Option<Vec<u8>>> {
    let step = 2;
    let mut waited = 0;
    loop {
        if let Some(data) = p.read_nb(fd, max)? {
            return Ok(Some(data));
        }
        if waited >= timeout_ms {
            return Ok(None);
        }
        p.sleep_ms(step)?;
        waited += step;
        // Yield real CPU so other simulated processes run; a tiny real
        // sleep keeps polling loops from starving busy threads.
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Writes a `\n`-terminated text line.
///
/// # Errors
///
/// Write errors propagate.
pub(crate) fn write_line(p: &Proc, fd: Fd, line: &str) -> SysResult<()> {
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    p.write(fd, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::{BindTo, Cluster, Domain, SockType, Uid};

    #[test]
    fn connect_retry_waits_for_the_listener() {
        let c = Cluster::builder()
            .net(NetConfig::ideal())
            .machine("a")
            .machine("b")
            .build();
        let server = c
            .spawn_user("b", "late-server", Uid(1), |p| {
                // Come up late.
                p.sleep_ms(50)?;
                let s = p.socket(Domain::Inet, SockType::Stream)?;
                p.bind(s, BindTo::Port(900))?;
                p.listen(s, 1)?;
                let (conn, _) = p.accept(s)?;
                p.write(conn, b"ok")?;
                Ok(())
            })
            .unwrap();
        let client = c
            .spawn_user("a", "client", Uid(1), |p| {
                let s = connect_retry(&p, "b", 900, 100)?;
                assert_eq!(p.read(s, 10)?, b"ok");
                Ok(())
            })
            .unwrap();
        assert_eq!(
            c.machine("a").unwrap().wait_exit(client),
            Some(dpm_meter::TermReason::Normal)
        );
        c.machine("b").unwrap().wait_exit(server);
        c.shutdown();
    }

    #[test]
    fn read_timeout_times_out_in_virtual_time() {
        let c = Cluster::builder()
            .net(NetConfig::ideal())
            .machine("a")
            .build();
        let pid = c
            .spawn_user("a", "t", Uid(1), |p| {
                let s = p.socket(Domain::Inet, SockType::Datagram)?;
                p.bind(s, BindTo::Port(1))?;
                let before = p.time_ms();
                let got = read_timeout(&p, s, 10, 40)?;
                assert!(got.is_none());
                assert!(p.time_ms() >= before + 40, "virtual time advanced");
                Ok(())
            })
            .unwrap();
        assert_eq!(
            c.machine("a").unwrap().wait_exit(pid),
            Some(dpm_meter::TermReason::Normal)
        );
        c.shutdown();
    }
}
