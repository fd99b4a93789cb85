//! A forking client–server workload.
//!
//! The server is the kind of long-lived system process the paper's
//! `acquire` command exists for: "situations may arise in which a
//! process such as a system server is an important component of a
//! computation. … Even more simply, a user may be interested only in
//! monitoring a system server to better understand its behavior."
//! (§4.3)
//!
//! The server accepts connections forever and forks one child per
//! connection (the `inetd` idiom), so an acquired server's trace shows
//! fork inheritance doing its job: children are metered automatically.

use crate::util::{connect_retry, write_line};
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockType, SysError, SysResult};
use std::sync::Arc;

/// Default server port.
pub const SERVER_PORT: u16 = 2200;

/// The server: args `[port]`. Runs until killed; forks a handler per
/// connection. Each handler serves `get <n>` requests with `n` bytes
/// of payload and closes on `quit` or end-of-file.
///
/// # Errors
///
/// Propagates socket errors.
pub fn server_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let port: u16 = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SERVER_PORT);
    let l = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(l, BindTo::Port(port))?;
    p.listen(l, 16)?;
    loop {
        let (conn, _peer) = p.accept(l)?;
        p.fork_with(move |c| {
            while let Some(line) = c.read_line(conn)? {
                let mut it = line.split_whitespace();
                match it.next() {
                    Some("get") => {
                        let n: usize = it.next().and_then(|v| v.parse().ok()).unwrap_or(1);
                        c.compute_ms(1)?;
                        let payload = vec![b'x'; n.min(4096)];
                        c.write(conn, &payload)?;
                    }
                    Some("quit") => break,
                    _ => write_line(&c, conn, "error")?,
                }
            }
            c.close(conn)?;
            Ok(())
        })?;
        p.close(conn)?;
    }
}

/// A client: args `[server_host, port, n_requests, req_size]`.
///
/// # Errors
///
/// Propagates socket errors.
pub(crate) fn client_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let host = args.first().map_or("red", String::as_str).to_owned();
    let port: u16 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(SERVER_PORT);
    let n: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let size: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(64);

    let s = connect_retry(&p, &host, port, 300)?;
    for _ in 0..n {
        write_line(&p, s, &format!("get {size}"))?;
        let mut got = 0;
        while got < size {
            let chunk = p.read(s, size - got)?;
            if chunk.is_empty() {
                return Err(SysError::Epipe);
            }
            got += chunk.len();
        }
        p.compute_ms(1)?;
    }
    write_line(&p, s, "quit")?;
    p.close(s)?;
    p.write(1, format!("client done: {n} requests\n").as_bytes())?;
    Ok(())
}

/// Registers both programs and installs `/bin/server` and
/// `/bin/client` everywhere.
pub fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("server", server_main);
    cluster.register_program("client", client_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/server", "server");
        cluster.install_program_file(&name, "/bin/client", "client");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::{Sig, Uid};

    #[test]
    fn two_clients_share_the_forking_server() {
        let c = Cluster::builder()
            .net(NetConfig::ideal())
            .seed(8)
            .machine("red")
            .machine("green")
            .machine("blue")
            .build();
        register(&c);
        let server = c
            .spawn_user("red", "server", Uid(1), |p| server_main(p, vec![]))
            .unwrap();
        let c1 = c
            .spawn_user("green", "client", Uid(1), |p| {
                client_main(
                    p,
                    vec![
                        "red".into(),
                        SERVER_PORT.to_string(),
                        "3".into(),
                        "32".into(),
                    ],
                )
            })
            .unwrap();
        let c2 = c
            .spawn_user("blue", "client", Uid(1), |p| {
                client_main(
                    p,
                    vec![
                        "red".into(),
                        SERVER_PORT.to_string(),
                        "3".into(),
                        "128".into(),
                    ],
                )
            })
            .unwrap();
        assert_eq!(
            c.machine("green").unwrap().wait_exit(c1),
            Some(dpm_meter::TermReason::Normal)
        );
        assert_eq!(
            c.machine("blue").unwrap().wait_exit(c2),
            Some(dpm_meter::TermReason::Normal)
        );
        // The server runs until killed, like a real daemon.
        let red = c.machine("red").unwrap();
        red.signal(None, server, Sig::Kill).unwrap();
        assert_eq!(red.wait_exit(server), Some(dpm_meter::TermReason::Killed));
        c.shutdown();
    }
}
