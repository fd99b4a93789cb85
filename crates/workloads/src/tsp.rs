//! The distributed traveling-salesman computation.
//!
//! "Initial experience with these tools [Lai & Miller 84] has shown
//! them to be useful for measurement studies, as well as for program
//! debugging. A multiprocess computation was developed and debugged
//! using the tool, which led to substantial modifications of the
//! program resulting in substantial improvements of its performance."
//! (§5) — that computation was a distributed traveling-salesman
//! solver, reproduced here as a master/worker branch-and-bound.
//!
//! The master fixes the first edge of the tour (city 0 → k) to form
//! one subproblem per non-initial city, hands subproblems to workers
//! over stream connections, and shares the best tour length found so
//! far as the bound accompanying each new task — the work-sharing
//! feedback that made the original program interesting to measure.

use crate::util::write_line;
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockType, SysError, SysResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Default port the TSP master listens on.
pub const TSP_PORT: u16 = 1800;

/// Generates the symmetric random distance matrix both sides derive
/// from the shared seed (instead of shipping the matrix around, as the
/// original did to keep messages small).
#[allow(clippy::needless_range_loop)] // symmetric matrix fill is clearest indexed
pub fn distance_matrix(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = vec![vec![0u32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w = rng.gen_range(1..100);
            d[i][j] = w;
            d[j][i] = w;
        }
    }
    d
}

/// Exhaustive branch-and-bound for tours starting with the fixed
/// prefix. Returns the best complete-tour length found that beats
/// `bound` (or `bound` itself) and the number of search-tree nodes
/// explored (the virtual CPU the caller should charge).
pub(crate) fn solve(dist: &[Vec<u32>], prefix: &[usize], bound: u32) -> (u32, u64) {
    let n = dist.len();
    let mut visited = vec![false; n];
    let mut len = 0u32;
    for w in prefix.windows(2) {
        len += dist[w[0]][w[1]];
    }
    for &c in prefix {
        visited[c] = true;
    }
    let mut best = bound;
    let mut nodes = 0u64;
    let last = *prefix.last().expect("nonempty prefix");
    dfs(
        dist,
        &mut visited,
        last,
        len,
        prefix.len(),
        &mut best,
        &mut nodes,
    );
    (best, nodes)
}

fn dfs(
    dist: &[Vec<u32>],
    visited: &mut [bool],
    at: usize,
    len: u32,
    depth: usize,
    best: &mut u32,
    nodes: &mut u64,
) {
    *nodes += 1;
    let n = dist.len();
    if len >= *best {
        return; // bound pruning
    }
    if depth == n {
        let total = len + dist[at][0];
        if total < *best {
            *best = total;
        }
        return;
    }
    for next in 1..n {
        if !visited[next] {
            visited[next] = true;
            dfs(
                dist,
                visited,
                next,
                len + dist[at][next],
                depth + 1,
                best,
                nodes,
            );
            visited[next] = false;
        }
    }
}

/// Plain sequential solution (the baseline the distributed version is
/// compared against).
pub fn solve_sequential(dist: &[Vec<u32>]) -> (u32, u64) {
    solve(dist, &[0], u32::MAX)
}

/// TSP master: args `[port, n_cities, n_workers, seed]`.
///
/// Writes `best <len>` to stdout when done.
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on bad arguments.
pub(crate) fn master_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let port: u16 = arg(&args, 0).unwrap_or(TSP_PORT);
    let n: usize = arg(&args, 1).unwrap_or(10);
    let workers: usize = arg(&args, 2).unwrap_or(2);
    let seed: u64 = arg(&args, 3).unwrap_or(7);
    if n < 3 || workers == 0 {
        return Err(SysError::Einval);
    }

    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(port))?;
    p.listen(listener, workers)?;
    let conns: Vec<u32> = (0..workers)
        .map(|_| p.accept(listener).map(|(fd, _)| fd))
        .collect::<SysResult<_>>()?;

    // Subproblems: fix the tour's first step 0 → k.
    let mut tasks: Vec<usize> = (1..n).collect();
    let mut best = u32::MAX;
    let mut outstanding = 0usize;
    // Prime every worker with one task.
    let mut idle: Vec<u32> = conns.clone();
    while !tasks.is_empty() || outstanding > 0 {
        while let (Some(k), Some(conn)) = (tasks.last().copied(), idle.pop()) {
            tasks.pop();
            write_line(&p, conn, &format!("task {n} {seed} {k} {best}"))?;
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        // Collect one result from whichever worker answers first —
        // select(2) over the busy connections.
        let busy: Vec<u32> = conns
            .iter()
            .copied()
            .filter(|c| !idle.contains(c))
            .collect();
        let ready = p.select(&busy)?;
        let conn = ready[0];
        let data = p.read(conn, 256)?;
        if data.is_empty() {
            return Err(SysError::Epipe); // a worker died on us
        }
        let text = String::from_utf8_lossy(&data);
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match it.next() {
                Some("best") => {
                    let len: u32 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(SysError::Einval)?;
                    best = best.min(len);
                    outstanding -= 1;
                    idle.push(conn);
                }
                _ => return Err(SysError::Einval),
            }
        }
    }
    for conn in conns {
        write_line(&p, conn, "quit")?;
        p.close(conn)?;
    }
    p.write(1, format!("best {best}\n").as_bytes())?;
    Ok(())
}

/// TSP worker: args `[master_host, port]`.
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on a garbled task.
pub(crate) fn worker_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let host = args.first().map_or("red", String::as_str).to_owned();
    let port: u16 = arg(&args, 1).unwrap_or(TSP_PORT);
    let s = crate::util::connect_retry(&p, &host, port, 300)?;
    let mut dist: Option<(Vec<Vec<u32>>, usize, u64)> = None;
    let mut solved = 0u32;
    while let Some(line) = p.read_line(s)? {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("task") => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(SysError::Einval)?;
                let seed: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(SysError::Einval)?;
                let k: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(SysError::Einval)?;
                let bound: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(SysError::Einval)?;
                let d = match &dist {
                    Some((d, dn, ds)) if *dn == n && *ds == seed => d,
                    _ => {
                        dist = Some((distance_matrix(n, seed), n, seed));
                        &dist.as_ref().expect("just set").0
                    }
                };
                let (best, nodes) = solve(d, &[0, k], bound);
                // Charge virtual CPU proportional to the search.
                p.compute_us(nodes.max(1) * 5)?;
                write_line(&p, s, &format!("best {best}"))?;
                solved += 1;
            }
            Some("quit") => break,
            _ => return Err(SysError::Einval),
        }
    }
    p.close(s)?;
    p.write(1, format!("worker solved {solved}\n").as_bytes())?;
    Ok(())
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

/// Registers the master and worker programs and installs
/// `/bin/tsp-master` and `/bin/tsp-worker` on every machine.
pub fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("tsp-master", master_main);
    cluster.register_program("tsp-worker", worker_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/tsp-master", "tsp-master");
        cluster.install_program_file(&name, "/bin/tsp-worker", "tsp-worker");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    #[test]
    fn branch_and_bound_matches_brute_force_on_small_instances() {
        for seed in 0..5 {
            let d = distance_matrix(7, seed);
            let (best, _) = solve_sequential(&d);
            // Brute force.
            let mut perm: Vec<usize> = (1..7).collect();
            let mut brute = u32::MAX;
            permute(&mut perm, 0, &mut |p| {
                let mut len = d[0][p[0]];
                for w in p.windows(2) {
                    len += d[w[0]][w[1]];
                }
                len += d[*p.last().unwrap()][0];
                brute = brute.min(len);
            });
            assert_eq!(best, brute, "seed {seed}");
        }
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn subproblem_union_covers_the_full_search() {
        let d = distance_matrix(8, 3);
        let (seq, _) = solve_sequential(&d);
        let mut best = u32::MAX;
        for k in 1..8 {
            let (b, _) = solve(&d, &[0, k], best);
            best = best.min(b);
        }
        assert_eq!(best, seq);
    }

    #[test]
    fn tighter_bound_prunes_more() {
        let d = distance_matrix(9, 1);
        let (opt, loose_nodes) = solve(&d, &[0, 1], u32::MAX);
        let (_, tight_nodes) = solve(&d, &[0, 1], opt);
        assert!(
            tight_nodes < loose_nodes,
            "bound {opt}: {tight_nodes} !< {loose_nodes}"
        );
    }

    #[test]
    fn distributed_master_worker_finds_the_optimum() {
        let c = Cluster::builder()
            .net(NetConfig::ideal())
            .seed(2)
            .machine("red")
            .machine("green")
            .machine("blue")
            .build();
        register(&c);
        let n = 9;
        let seed = 11;
        let master = c
            .spawn_user("red", "master", Uid(1), move |p| {
                master_main(
                    p,
                    vec![
                        TSP_PORT.to_string(),
                        n.to_string(),
                        "2".to_string(),
                        seed.to_string(),
                    ],
                )
            })
            .unwrap();
        for m in ["green", "blue"] {
            c.spawn_user(m, "worker", Uid(1), |p| {
                worker_main(p, vec!["red".into(), TSP_PORT.to_string()])
            })
            .unwrap();
        }
        let red = c.machine("red").unwrap();
        assert_eq!(red.wait_exit(master), Some(dpm_meter::TermReason::Normal));
        let out = String::from_utf8_lossy(&red.console_output(master).unwrap()).into_owned();
        let (expected, _) = solve_sequential(&distance_matrix(n, seed));
        assert_eq!(out.trim(), format!("best {expected}"));
        c.shutdown();
    }
}
