//! `Machine::wait_drained`: the barrier that returns once every
//! connection on a port whose sender closed has been closed by its
//! reader too.

use dpm_meter::SockName;
use dpm_simnet::NetConfig;
use dpm_simos::{connect_backoff, Backoff, BindTo, Cluster, Domain, SockType, Uid};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

const U: Uid = Uid(100);
const PORT: u16 = 4100;
const LONG: Duration = Duration::from_secs(30);

fn two_machines() -> Arc<Cluster> {
    Cluster::builder()
        .net(NetConfig::ideal())
        .seed(1)
        .machine("red")
        .machine("green")
        .build()
}

/// A reader on green's `PORT`: accepts one connection, reads it to its
/// end, then closes it once `release` fires or is dropped. Returns
/// `release` and the sender's name as `accept` saw it.
fn spawn_reader(cluster: &Arc<Cluster>) -> (Sender<()>, Receiver<SockName>) {
    let (release, released) = channel::<()>();
    let (who_tx, who) = channel();
    let (bound_tx, bound) = channel();
    cluster
        .spawn_user("green", "reader", U, move |p| {
            let l = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(l, BindTo::Port(PORT))?;
            p.listen(l, 1)?;
            let _ = bound_tx.send(());
            let (conn, sender) = p.accept(l)?;
            let _ = who_tx.send(sender);
            while !p.read(conn, 64)?.is_empty() {}
            let _ = released.recv();
            p.close(conn)
        })
        .unwrap();
    bound.recv().unwrap();
    (release, who)
}

/// A sender on red that connects to green's `PORT`, writes a little,
/// and exits once `done` fires or is dropped.
fn spawn_sender(cluster: &Arc<Cluster>, done: Receiver<()>) {
    cluster
        .spawn_user("red", "sender", U, move |p| {
            let s = connect_backoff(&p, "green", PORT, Backoff::standard())?;
            p.write(s, b"records")?;
            let _ = done.recv();
            Ok(())
        })
        .unwrap();
}

#[test]
fn a_port_without_connections_is_drained_at_once() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    assert_eq!(green.wait_drained(PORT, Duration::ZERO), Ok(()));
    cluster.shutdown();
}

#[test]
fn an_exited_sender_holds_the_barrier_until_its_reader_closes() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let (release, _who) = spawn_reader(&cluster);
    spawn_sender(&cluster, channel().1);
    let sender = cluster.machine("red").unwrap().procs_named("sender")[0];
    cluster.machine("red").unwrap().wait_exit(sender);

    let (drained_tx, drained) = channel();
    let waiter = std::thread::spawn(move || drained_tx.send(green.wait_drained(PORT, LONG)));
    assert_eq!(
        drained.recv_timeout(Duration::from_millis(50)),
        Err(RecvTimeoutError::Timeout),
        "the barrier held while the reader kept the connection"
    );
    release.send(()).unwrap();
    assert_eq!(drained.recv().unwrap(), Ok(()));
    waiter.join().unwrap().unwrap();
    cluster.shutdown();
}

#[test]
fn a_live_connection_does_not_hold_the_barrier() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let (release, who) = spawn_reader(&cluster);
    let (done, done_rx) = channel();
    spawn_sender(&cluster, done_rx);
    who.recv().unwrap();
    assert_eq!(green.wait_drained(PORT, Duration::ZERO), Ok(()));
    drop((done, release));
    cluster.shutdown();
}

#[test]
fn a_reader_that_never_closes_is_named_after_the_bound() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let (release, who) = spawn_reader(&cluster);
    spawn_sender(&cluster, channel().1);
    let sender = who.recv().unwrap();
    let red = cluster.machine("red").unwrap();
    red.wait_exit(red.procs_named("sender")[0]);
    assert_eq!(
        green.wait_drained(PORT, Duration::from_millis(20)),
        Err(vec![sender])
    );
    drop(release);
    cluster.shutdown();
}
