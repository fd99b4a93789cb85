//! Structural studies: the shape of a computation.
//!
//! The third analysis family the paper mentions (§3.3). Builds the
//! process-communication graph — which processes exist, who created
//! whom, who talks to whom and how much — and renders it as a table or
//! Graphviz DOT.

use crate::pairing::Pairing;
use crate::trace::{EventKind, ProcKey, Trace};
use std::collections::BTreeMap;
use std::fmt;

/// A directed edge of the communication graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommEdge {
    /// Sender.
    pub from: ProcKey,
    /// Receiver.
    pub to: ProcKey,
    /// Messages matched on this edge.
    pub messages: u64,
    /// Bytes matched on this edge.
    pub bytes: u64,
}

/// The structure of a computation.
#[derive(Debug, Clone, Default)]
pub struct StructureReport {
    /// All processes, in first-appearance order.
    pub processes: Vec<ProcKey>,
    /// Parent → child fork edges found in the trace.
    pub forks: Vec<(ProcKey, ProcKey)>,
    /// Communication edges with volumes.
    pub edges: Vec<CommEdge>,
}

impl StructureReport {
    /// Builds the structure from a trace and its message pairing.
    pub fn analyze(trace: &Trace, pairing: &Pairing) -> StructureReport {
        let processes = trace.processes();
        let mut forks = Vec::new();
        for e in &trace.events {
            if let EventKind::Fork { child } = e.kind {
                forks.push((
                    e.proc,
                    ProcKey {
                        machine: e.proc.machine,
                        pid: child,
                    },
                ));
            }
        }
        let mut vol: BTreeMap<(ProcKey, ProcKey), (u64, u64)> = BTreeMap::new();
        for m in &pairing.messages {
            let e = vol.entry((m.from, m.to)).or_default();
            e.0 += 1;
            e.1 += m.bytes as u64;
        }
        let edges = vol
            .into_iter()
            .map(|((from, to), (messages, bytes))| CommEdge {
                from,
                to,
                messages,
                bytes,
            })
            .collect();
        StructureReport {
            processes,
            forks,
            edges,
        }
    }

    /// Renders a Graphviz DOT drawing: machines as clusters, fork
    /// edges dashed, communication edges labelled with volume.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph computation {\n  rankdir=LR;\n");
        let mut machines: Vec<u32> = self.processes.iter().map(|p| p.machine).collect();
        machines.sort_unstable();
        machines.dedup();
        for m in machines {
            out.push_str(&format!(
                "  subgraph cluster_m{m} {{ label=\"machine {m}\";\n"
            ));
            for p in self.processes.iter().filter(|p| p.machine == m) {
                out.push_str(&format!("    \"{p}\";\n"));
            }
            out.push_str("  }\n");
        }
        for (a, b) in &self.forks {
            out.push_str(&format!("  \"{a}\" -> \"{b}\" [style=dashed];\n"));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{} msgs / {} B\"];\n",
                e.from, e.to, e.messages, e.bytes
            ));
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for StructureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} processes, {} fork edges",
            self.processes.len(),
            self.forks.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {}  {} msgs, {} bytes",
                e.from, e.to, e.messages, e.bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Pairing;
    use crate::trace::Trace;

    /// A master on m0 exchanging datagrams with workers on m1 and m2,
    /// plus a fork on m0.
    const LOG: &str = "\
event=fork machine=0 cpuTime=1 procTime=0 traceType=7 pid=10 pc=1 newPid=11
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=10 pc=2 sock=1 msgLength=8 destName=inet:1:70
event=send machine=0 cpuTime=3 procTime=0 traceType=1 pid=10 pc=3 sock=1 msgLength=8 destName=inet:2:70
event=receive machine=1 cpuTime=9 procTime=0 traceType=3 pid=20 pc=1 sock=2 msgLength=8 sourceName=inet:0:1024
event=receive machine=2 cpuTime=9 procTime=0 traceType=3 pid=30 pc=1 sock=2 msgLength=8 sourceName=inet:0:1024
";

    fn build() -> StructureReport {
        let t = Trace::parse(LOG);
        let p = Pairing::analyze(&t);
        StructureReport::analyze(&t, &p)
    }

    #[test]
    fn processes_and_forks() {
        let s = build();
        assert_eq!(s.processes.len(), 3);
        assert_eq!(
            s.forks,
            vec![(
                ProcKey {
                    machine: 0,
                    pid: 10
                },
                ProcKey {
                    machine: 0,
                    pid: 11
                }
            )]
        );
    }

    #[test]
    fn edges_carry_volume() {
        let s = build();
        assert_eq!(s.edges.len(), 2);
        assert!(s.edges.iter().all(|e| e.from.pid == 10));
        assert!(s.edges.iter().all(|e| e.messages == 1 && e.bytes == 8));
    }

    #[test]
    fn dot_output_contains_clusters_and_edges() {
        let s = build();
        let dot = s.to_dot();
        assert!(dot.contains("cluster_m0"));
        assert!(dot.contains("cluster_m2"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("1 msgs / 8 B"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn display_renders() {
        let shown = build().to_string();
        assert!(shown.contains("3 processes, 1 fork edges"));
        assert!(shown.contains("m0:p10 -> m1:p20"));
    }
}
