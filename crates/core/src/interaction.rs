use std::collections::BTreeSet;
use std::fmt;

use crate::{AvailExpr, CoreError};

/// Opaque handle to a stage in an [`InteractionDiagram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index of the stage.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Stage {
    /// Services used while executing this stage. Multiple services model
    /// the paper's AND-fork (Figure 4: Flight, Hotel and Car reservation
    /// systems queried simultaneously).
    services: Vec<String>,
    /// Outgoing `(target, probability)` edges; `None` target = End.
    edges: Vec<(Option<usize>, f64)>,
}

/// An interaction diagram — the paper's function-level notation
/// (Figures 3–6).
///
/// A function execution starts at the implicit `Begin` node, traverses
/// stages (each using one or more services), branches probabilistically,
/// and terminates at the implicit `End` node. Each `Begin → End` path is a
/// *function scenario*; the function is available in a scenario iff every
/// distinct service used along the path is available. Compiling the diagram
/// yields the function's availability expression:
///
/// `A(function) = Σ_paths P(path) · Π_{s ∈ services(path)} A(s)`.
///
/// # Examples
///
/// The paper's Browse function (Figure 3):
///
/// ```
/// use std::collections::HashMap;
/// use uavail_core::InteractionDiagram;
///
/// # fn main() -> Result<(), uavail_core::CoreError> {
/// let mut d = InteractionDiagram::new();
/// let ws = d.add_stage(vec!["WS"]);
/// let cached = d.add_stage(vec!["WS"]);        // answer from cache
/// let app = d.add_stage(vec!["AS"]);           // dynamic page
/// let db = d.add_stage(vec!["AS", "DS"]);      // page needing the DB
/// d.connect_begin(ws, 1.0)?;
/// d.connect(ws, cached, 0.2)?;                 // q23
/// d.connect(ws, app, 0.8 * 0.4)?;              // q24 * q45
/// d.connect(ws, db, 0.8 * 0.6)?;               // q24 * q47
/// d.connect_end(cached, 1.0)?;
/// d.connect_end(app, 1.0)?;
/// d.connect_end(db, 1.0)?;
/// let expr = d.compile()?;
/// let mut env = HashMap::new();
/// env.insert("WS".into(), 1.0);
/// env.insert("AS".into(), 0.99);
/// env.insert("DS".into(), 0.98);
/// let a = expr.eval(&env)?;
/// let expected = 0.2 + 0.32 * 0.99 + 0.48 * 0.99 * 0.98;
/// assert!((a - expected).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InteractionDiagram {
    stages: Vec<Stage>,
    /// Outgoing `(target, probability)` edges from Begin.
    begin_edges: Vec<(usize, f64)>,
}

impl InteractionDiagram {
    /// Creates an empty diagram.
    pub fn new() -> Self {
        InteractionDiagram::default()
    }

    /// Adds a stage using the given services and returns its handle.
    pub fn add_stage<S: Into<String>>(&mut self, services: Vec<S>) -> NodeId {
        self.stages.push(Stage {
            services: services.into_iter().map(Into::into).collect(),
            edges: Vec::new(),
        });
        NodeId(self.stages.len() - 1)
    }

    /// Accepts `0 ≤ p ≤ 1` (with 1e-12 of slack above 1), the rule the
    /// profile graph and the travel parameters apply. A zero-probability
    /// edge is kept and its scenarios add an exact `+0.0` term.
    fn check_probability(&self, context: &str, p: f64) -> Result<(), CoreError> {
        if (0.0..=1.0 + 1e-12).contains(&p) {
            Ok(())
        } else {
            Err(CoreError::InvalidProbability {
                context: context.to_string(),
                value: p,
            })
        }
    }

    fn check_node(&self, id: NodeId) -> Result<(), CoreError> {
        if id.0 >= self.stages.len() {
            return Err(CoreError::Undefined {
                name: id.to_string(),
            });
        }
        Ok(())
    }

    /// Connects Begin to `to` with the given probability.
    ///
    /// # Errors
    ///
    /// [`CoreError::Undefined`] / [`CoreError::InvalidProbability`].
    pub fn connect_begin(&mut self, to: NodeId, p: f64) -> Result<(), CoreError> {
        self.check_node(to)?;
        self.check_probability(&format!("Begin -> {to}"), p)?;
        self.begin_edges.push((to.0, p));
        Ok(())
    }

    /// Connects stage `from` to stage `to` with the given probability.
    ///
    /// # Errors
    ///
    /// [`CoreError::Undefined`] / [`CoreError::InvalidProbability`].
    pub fn connect(&mut self, from: NodeId, to: NodeId, p: f64) -> Result<(), CoreError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.check_probability(&format!("{from} -> {to}"), p)?;
        self.stages[from.0].edges.push((Some(to.0), p));
        Ok(())
    }

    /// Connects stage `from` to End with the given probability.
    ///
    /// # Errors
    ///
    /// [`CoreError::Undefined`] / [`CoreError::InvalidProbability`].
    pub fn connect_end(&mut self, from: NodeId, p: f64) -> Result<(), CoreError> {
        self.check_node(from)?;
        self.check_probability(&format!("{from} -> End"), p)?;
        self.stages[from.0].edges.push((None, p));
        Ok(())
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.begin_edges.is_empty() {
            return Err(CoreError::BadDiagram {
                reason: "Begin has no outgoing edges".into(),
            });
        }
        let begin_sum: f64 = self.begin_edges.iter().map(|(_, p)| p).sum();
        if (begin_sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::BadDiagram {
                reason: format!("Begin edge probabilities sum to {begin_sum}, expected 1"),
            });
        }
        // Every reachable stage must have edges summing to 1.
        let mut reachable = vec![false; self.stages.len()];
        let mut stack: Vec<usize> = self.begin_edges.iter().map(|&(t, _)| t).collect();
        while let Some(i) = stack.pop() {
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            for &(t, _) in &self.stages[i].edges {
                if let Some(t) = t {
                    if !reachable[t] {
                        stack.push(t);
                    }
                }
            }
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let sum: f64 = stage.edges.iter().map(|(_, p)| p).sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(CoreError::BadDiagram {
                    reason: format!("stage#{i} edge probabilities sum to {sum}, expected 1"),
                });
            }
        }
        // Acyclicity (the paper's diagrams are DAGs; cycles would make the
        // path enumeration diverge).
        let mut color = vec![0u8; self.stages.len()]; // 0 white, 1 grey, 2 black
        fn dfs(stages: &[Stage], color: &mut [u8], i: usize) -> Result<(), CoreError> {
            if color[i] == 1 {
                return Err(CoreError::BadDiagram {
                    reason: format!("cycle through stage#{i}"),
                });
            }
            if color[i] == 2 {
                return Ok(());
            }
            color[i] = 1;
            for &(t, _) in &stages[i].edges {
                if let Some(t) = t {
                    dfs(stages, color, t)?;
                }
            }
            color[i] = 2;
            Ok(())
        }
        for &(t, _) in &self.begin_edges {
            dfs(&self.stages, &mut color, t)?;
        }
        Ok(())
    }

    /// Enumerates all function scenarios as
    /// `(probability, services-used)` pairs.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadDiagram`] for invalid structure (see
    /// [`InteractionDiagram::compile`]).
    pub fn scenarios(&self) -> Result<Vec<(f64, Vec<String>)>, CoreError> {
        self.validate()?;
        let mut out = Vec::new();
        // DFS over paths, accumulating probability and the service set.
        struct Frame {
            node: usize,
            prob: f64,
            services: BTreeSet<String>,
        }
        let mut stack: Vec<Frame> = Vec::new();
        for &(t, p) in &self.begin_edges {
            let mut services = BTreeSet::new();
            services.extend(self.stages[t].services.iter().cloned());
            stack.push(Frame {
                node: t,
                prob: p,
                services,
            });
        }
        while let Some(frame) = stack.pop() {
            for &(t, p) in &self.stages[frame.node].edges {
                match t {
                    None => {
                        out.push((frame.prob * p, frame.services.iter().cloned().collect()));
                    }
                    Some(t) => {
                        let mut services = frame.services.clone();
                        services.extend(self.stages[t].services.iter().cloned());
                        stack.push(Frame {
                            node: t,
                            prob: frame.prob * p,
                            services,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Compiles the diagram into the function's availability expression
    /// `Σ_paths P(path) · Π_{distinct s ∈ path} A(s)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadDiagram`] when Begin has no edges, a reachable
    /// stage's probabilities do not sum to one, or the diagram is cyclic.
    pub fn compile(&self) -> Result<AvailExpr, CoreError> {
        let scenarios = self.scenarios()?;
        let terms = scenarios
            .into_iter()
            .map(|(p, services)| {
                let expr = if services.is_empty() {
                    AvailExpr::constant(1.0)
                } else {
                    AvailExpr::product(services.into_iter().map(AvailExpr::param).collect())
                };
                (p, expr)
            })
            .collect();
        let expr = AvailExpr::weighted_sum(terms);
        expr.validate()?;
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(entries: &[(&str, f64)]) -> HashMap<String, f64> {
        entries.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    /// Single stage using one service, straight through.
    #[test]
    fn trivial_diagram() {
        let mut d = InteractionDiagram::new();
        let s = d.add_stage(vec!["WS"]);
        d.connect_begin(s, 1.0).unwrap();
        d.connect_end(s, 1.0).unwrap();
        let expr = d.compile().unwrap();
        let a = expr.eval(&env(&[("WS", 0.97)])).unwrap();
        assert!((a - 0.97).abs() < 1e-15);
    }

    #[test]
    fn and_fork_uses_all_services() {
        // Search-like: one stage touching three reservation services.
        let mut d = InteractionDiagram::new();
        let fork = d.add_stage(vec!["Flight", "Hotel", "Car"]);
        d.connect_begin(fork, 1.0).unwrap();
        d.connect_end(fork, 1.0).unwrap();
        let a = d
            .compile()
            .unwrap()
            .eval(&env(&[("Flight", 0.9), ("Hotel", 0.8), ("Car", 0.7)]))
            .unwrap();
        assert!((a - 0.9 * 0.8 * 0.7).abs() < 1e-15);
    }

    #[test]
    fn branching_mixes_scenarios() {
        let mut d = InteractionDiagram::new();
        let first = d.add_stage(vec!["WS"]);
        let heavy = d.add_stage(vec!["AS"]);
        d.connect_begin(first, 1.0).unwrap();
        d.connect_end(first, 0.3).unwrap();
        d.connect(first, heavy, 0.7).unwrap();
        d.connect_end(heavy, 1.0).unwrap();
        let a = d
            .compile()
            .unwrap()
            .eval(&env(&[("WS", 0.9), ("AS", 0.5)]))
            .unwrap();
        let expected = 0.3 * 0.9 + 0.7 * 0.9 * 0.5;
        assert!((a - expected).abs() < 1e-15);
    }

    #[test]
    fn shared_service_counted_once_per_path() {
        // Two stages both using WS: availability must be linear in WS.
        let mut d = InteractionDiagram::new();
        let a1 = d.add_stage(vec!["WS"]);
        let a2 = d.add_stage(vec!["WS"]);
        d.connect_begin(a1, 1.0).unwrap();
        d.connect(a1, a2, 1.0).unwrap();
        d.connect_end(a2, 1.0).unwrap();
        let a = d.compile().unwrap().eval(&env(&[("WS", 0.9)])).unwrap();
        assert!((a - 0.9).abs() < 1e-15);
    }

    #[test]
    fn scenario_probabilities_sum_to_one() {
        let mut d = InteractionDiagram::new();
        let s1 = d.add_stage(vec!["A"]);
        let s2 = d.add_stage(vec!["B"]);
        let s3 = d.add_stage(vec!["C"]);
        d.connect_begin(s1, 1.0).unwrap();
        d.connect(s1, s2, 0.25).unwrap();
        d.connect(s1, s3, 0.35).unwrap();
        d.connect_end(s1, 0.4).unwrap();
        d.connect_end(s2, 1.0).unwrap();
        d.connect_end(s3, 1.0).unwrap();
        let scenarios = d.scenarios().unwrap();
        let total: f64 = scenarios.iter().map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(scenarios.len(), 3);
    }

    #[test]
    fn rejects_unnormalized_or_empty() {
        let d = InteractionDiagram::new();
        assert!(matches!(d.compile(), Err(CoreError::BadDiagram { .. })));
        let mut d = InteractionDiagram::new();
        let s = d.add_stage(vec!["A"]);
        d.connect_begin(s, 1.0).unwrap();
        d.connect_end(s, 0.5).unwrap(); // missing 0.5
        assert!(matches!(d.compile(), Err(CoreError::BadDiagram { .. })));
    }

    #[test]
    fn rejects_cycles() {
        let mut d = InteractionDiagram::new();
        let a = d.add_stage(vec!["A"]);
        let b = d.add_stage(vec!["B"]);
        d.connect_begin(a, 1.0).unwrap();
        d.connect(a, b, 1.0).unwrap();
        d.connect(b, a, 0.5).unwrap();
        d.connect_end(b, 0.5).unwrap();
        assert!(matches!(d.compile(), Err(CoreError::BadDiagram { .. })));
    }

    #[test]
    fn rejects_bad_probabilities_and_nodes() {
        let mut d = InteractionDiagram::new();
        let s = d.add_stage(vec!["A"]);
        assert!(d.connect_begin(s, -0.1).is_err());
        assert!(d.connect_begin(s, 1.5).is_err());
        assert!(d.connect_begin(s, f64::NAN).is_err());
        assert!(d.connect_begin(NodeId(9), 1.0).is_err());
        assert!(d.connect(s, NodeId(9), 1.0).is_err());
    }

    #[test]
    fn zero_probability_edge_adds_an_exact_zero_term() {
        let mut d = InteractionDiagram::new();
        let s = d.add_stage(vec!["A"]);
        let never = d.add_stage(vec!["B"]);
        d.connect_begin(s, 1.0).unwrap();
        d.connect_end(s, 1.0).unwrap();
        d.connect(s, never, 0.0).unwrap();
        d.connect_end(never, 1.0).unwrap();
        let a = d
            .compile()
            .unwrap()
            .eval(&env(&[("A", 0.5), ("B", 0.25)]))
            .unwrap();
        assert_eq!(a.to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn unreachable_stage_is_ignored() {
        let mut d = InteractionDiagram::new();
        let s = d.add_stage(vec!["A"]);
        let _orphan = d.add_stage(vec!["B"]); // no edges, unreachable
        d.connect_begin(s, 1.0).unwrap();
        d.connect_end(s, 1.0).unwrap();
        let a = d.compile().unwrap().eval(&env(&[("A", 0.5)])).unwrap();
        assert!((a - 0.5).abs() < 1e-15);
    }
}
