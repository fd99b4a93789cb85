//! The Appendix-B computation: processes `A` and `B`.
//!
//! The paper's example session (§4.4, Appendix B) creates a job `foo`
//! with process `A` on machine red and process `B` on machine green,
//! meters `send receive fork accept connect`, starts the job, and
//! waits for both to terminate normally. These are the two programs.
//!
//! `B` is a small server: it binds a port, accepts one connection, and
//! echoes messages until end-of-file. `A` connects to `B`, exchanges a
//! number of request/reply rounds, and exits. `A` also forks a child
//! that computes briefly, so the session's `fork` flag has something
//! to record.

use crate::util::{connect_retry, write_line};
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockType, SysError, SysResult};
use std::sync::Arc;

/// Default port `B` listens on.
pub(crate) const B_PORT: u16 = 1700;

/// Program `A`: args `[b_host] [port] [rounds]` (defaults: `green`,
/// 1700, 5).
///
/// # Errors
///
/// Propagates socket errors; fails if `B` never comes up.
pub(crate) fn a_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let host = args.first().map_or("green", String::as_str).to_owned();
    let port: u16 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(B_PORT);
    let rounds: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    // Fork a helper so the fork flag of the Appendix-B session has an
    // event to record.
    let child = p.fork_with(|c| {
        c.compute_ms(3)?;
        Ok(())
    })?;

    let s = connect_retry(&p, &host, port, 200)?;
    for i in 0..rounds {
        write_line(&p, s, &format!("request {i}"))?;
        let reply = p.read_line(s)?.ok_or(SysError::Epipe)?;
        if reply != format!("echo: request {i}") {
            return Err(SysError::Einval);
        }
        p.compute_ms(2)?;
    }
    p.close(s)?;
    let _ = p.wait_child()?;
    let _ = child;
    p.write(1, b"A done\n")?;
    Ok(())
}

/// Program `B`: args `[port]` (default 1700). Accepts one connection
/// and echoes lines until end-of-file.
///
/// # Errors
///
/// Propagates socket errors.
pub(crate) fn b_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let port: u16 = args.first().and_then(|s| s.parse().ok()).unwrap_or(B_PORT);
    let s = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(s, BindTo::Port(port))?;
    p.listen(s, 4)?;
    let (conn, _peer) = p.accept(s)?;
    while let Some(line) = p.read_line(conn)? {
        p.compute_ms(1)?;
        write_line(&p, conn, &format!("echo: {line}"))?;
    }
    p.close(conn)?;
    p.write(1, b"B done\n")?;
    Ok(())
}

/// Registers `A` and `B` and installs `/bin/A` on red-like machines
/// and `/bin/B` everywhere (the controller will `rcp` as needed).
pub(crate) fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("A", a_main);
    cluster.register_program("B", b_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/A", "A");
        cluster.install_program_file(&name, "/bin/B", "B");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    #[test]
    fn a_and_b_run_to_completion() {
        let c = Cluster::builder()
            .net(NetConfig::lan())
            .seed(5)
            .machine("red")
            .machine("green")
            .build();
        register(&c);
        let b = c
            .spawn_user("green", "B", Uid(1), |p| b_main(p, vec![]))
            .unwrap();
        let a = c
            .spawn_user("red", "A", Uid(1), |p| a_main(p, vec![]))
            .unwrap();
        assert_eq!(
            c.machine("red").unwrap().wait_exit(a),
            Some(dpm_meter::TermReason::Normal)
        );
        assert_eq!(
            c.machine("green").unwrap().wait_exit(b),
            Some(dpm_meter::TermReason::Normal)
        );
        let out = c.machine("red").unwrap().console_output(a).unwrap();
        assert_eq!(String::from_utf8_lossy(&out), "A done\n");
        c.shutdown();
    }
}
