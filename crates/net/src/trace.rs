//! Step-by-step Dijkstra traces in the format of the paper's Tables 4/5.
//!
//! The paper documents its experiments with "the table of path values
//! occurring as the Dijkstra's algorithm is running": one row per settle
//! step, the set of settled nodes, and for every other node its tentative
//! distance `D_i` and tentative path (or `R` when still unreached).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::Topology;

/// The label of one node at one step of the algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLabel {
    /// The labelled node.
    pub node: NodeId,
    /// Tentative distance from the source, `None` while unreached
    /// (rendered as the paper's `R`).
    pub dist: Option<f64>,
    /// Tentative path from the source (empty while unreached).
    pub path: Vec<NodeId>,
}

/// One settle step: the set of settled nodes (in settle order) and the
/// label of every node after relaxation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Nodes settled so far, in settle order.
    pub settled: Vec<NodeId>,
    /// Labels of all nodes (indexed by node id) after this step's
    /// relaxations.
    pub labels: Vec<NodeLabel>,
}

/// A full run trace, one [`TraceStep`] per settled node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DijkstraTrace {
    source: NodeId,
    steps: Vec<TraceStep>,
}

impl DijkstraTrace {
    /// Creates an empty trace for a run starting at `source`.
    pub fn new(source: NodeId) -> Self {
        DijkstraTrace {
            source,
            steps: Vec::new(),
        }
    }

    /// The source node of the traced run.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The recorded steps, in execution order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    pub(crate) fn push_step(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// Renders the trace as a text table in the style of the paper's
    /// Tables 4 and 5: one row per step, a `{...}` settled set, and
    /// `D_i` / `Path` column pairs for every node except the source.
    ///
    /// Node names are taken from `topology`; unreached nodes show `R`.
    pub fn render(&self, topology: &Topology) -> String {
        let targets: Vec<NodeId> = topology.node_ids().filter(|&n| n != self.source).collect();

        let mut header = vec!["Step".to_string(), "Nodes".to_string()];
        for &t in &targets {
            header.push(format!("D{}", display_index(topology, t)));
            header.push("Path".to_string());
        }

        let mut rows = vec![header];
        for (i, step) in self.steps.iter().enumerate() {
            let mut row = vec![
                (i + 1).to_string(),
                format!(
                    "{{{}}}",
                    step.settled
                        .iter()
                        .map(|&n| topology.node(n).name().to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ];
            for &t in &targets {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`labels` holds one entry per node of the traced topology"
                )]
                let label = &step.labels[t.index()];
                match label.dist {
                    Some(d) => {
                        row.push(format!("{d:.4}"));
                        row.push(
                            label
                                .path
                                .iter()
                                .map(|&n| topology.node(n).name().to_string())
                                .collect::<Vec<_>>()
                                .join(","),
                        );
                    }
                    None => {
                        row.push("R".to_string());
                        row.push("-".to_string());
                    }
                }
            }
            rows.push(row);
        }

        render_table(&rows)
    }
}

/// The paper labels columns `D1..D6` after the `U1..U6` node names; for
/// arbitrary topologies fall back to a 1-based node index.
fn display_index(topology: &Topology, node: NodeId) -> String {
    let name = topology.node(node).name();
    if let Some(stripped) = name.strip_prefix('U') {
        if stripped.chars().all(|c| c.is_ascii_digit()) {
            return stripped.to_string();
        }
    }
    (node.index() + 1).to_string()
}

/// Renders rows of equal length as an aligned text table.
pub(crate) fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "`rows` is non-empty (checked above)"
    )]
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    #[expect(
        clippy::indexing_slicing,
        reason = "the table is rectangular: every row has `cols` cells"
    )]
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "the table is rectangular: every row has `cols` cells"
            )]
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        out.push_str("|\n");
        if r == 0 {
            for &w in &widths {
                let _ = write!(out, "|{:-<width$}", "", width = w + 2);
            }
            out.push_str("|\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_with_trace;
    use crate::lvn::LinkWeights;
    use crate::topology::TopologyBuilder;
    use crate::units::Mbps;

    fn traced() -> (Topology, DijkstraTrace) {
        let mut b = TopologyBuilder::new();
        let u1 = b.add_node("U1");
        let u2 = b.add_node("U2");
        let u3 = b.add_node("U3");
        b.add_link(u1, u2, Mbps::new(2.0)).unwrap();
        b.add_link(u2, u3, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let w = LinkWeights::uniform(2, 1.0);
        let (_, trace) = dijkstra_with_trace(&topo, &w, u1).unwrap();
        (topo, trace)
    }

    #[test]
    fn render_contains_paper_style_markers() {
        let (topo, trace) = traced();
        let table = trace.render(&topo);
        assert!(table.contains("{U1}"), "settled set rendered: {table}");
        assert!(table.contains("D2"));
        assert!(table.contains("D3"));
        assert!(table.contains("U1,U2,U3"));
        // Step 1 has U3 unreached → R.
        assert!(table.contains("R"));
    }

    #[test]
    fn source_column_is_omitted() {
        let (topo, trace) = traced();
        let table = trace.render(&topo);
        assert!(!table.contains("D1"));
    }

    #[test]
    fn display_index_falls_back_to_position() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("Athens");
        let p = b.add_node("Patra");
        b.add_link(a, p, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        assert_eq!(display_index(&topo, p), "2");
        assert_eq!(display_index(&topo, a), "1");
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![
            vec!["h1".to_string(), "header2".to_string()],
            vec!["x".to_string(), "y".to_string()],
        ];
        let out = render_table(&rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn empty_table_renders_empty() {
        assert_eq!(render_table(&[]), "");
    }
}
