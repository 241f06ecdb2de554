//! The workspace call graph: every shipping `fn`, keyed by qualified
//! path, with conservatively name-resolved call edges and reachability
//! from the `// lint:hot-path` roots.
//!
//! Resolution policy (documented in DESIGN.md §12): a qualified call
//! `a::B::foo(…)` resolves to every fn whose qualified path ends with the
//! written segments; an unqualified call `foo(…)` or method call
//! `recv.foo(…)` resolves by name through three widening tiers — same
//! file, then same crate, then the whole workspace — stopping at the
//! first tier with candidates. Method calls only resolve to fns that take
//! `self`. This over-approximates real dispatch (any same-named method
//! anywhere in the tier is an edge) and never under-approximates within a
//! tier, which is the right bias for a rule that must prove absence of
//! allocation.

use std::collections::BTreeMap;

use oraclesize_runtime::Json;

use crate::parse::{crate_of, parse_fns, Call, FnDef};
use crate::source::SourceFile;

/// The assembled graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every shipping fn, sorted by (file, line) — a deterministic
    /// function of the source set regardless of discovery order.
    pub fns: Vec<FnDef>,
    /// `edges[i]` = indices of fns the `i`-th fn may call, sorted, deduped.
    pub edges: Vec<Vec<usize>>,
    /// Indices of `// lint:hot-path` roots.
    pub roots: Vec<usize>,
    /// `reachable[i]` = index of the root that reaches fn `i` (itself for
    /// a root), `None` when unreachable from every root.
    pub reachable: Vec<Option<usize>>,
}

impl CallGraph {
    /// Parses every file and assembles the graph. The result is
    /// independent of the order of `files`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut fns: Vec<FnDef> = files.iter().flat_map(parse_fns).collect();
        fns.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for caller in &fns {
            let mut out: Vec<usize> = caller
                .calls
                .iter()
                .flat_map(|c| resolve(&fns, &by_name, caller, c))
                .collect();
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }

        let roots: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.hot)
            .map(|(i, _)| i)
            .collect();

        // BFS from every root, recording a witness root per reached fn.
        // Roots are visited in index order, so the witness is the first
        // (file, line)-ordered root that reaches the fn — deterministic.
        let mut reachable: Vec<Option<usize>> = vec![None; fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in &roots {
            if reachable[r].is_none() {
                reachable[r] = Some(r);
                queue.push(r);
            }
            while let Some(v) = queue.pop() {
                let witness = reachable[v];
                for &w in &edges[v] {
                    if reachable[w].is_none() {
                        reachable[w] = witness;
                        queue.push(w);
                    }
                }
            }
        }

        CallGraph {
            fns,
            edges,
            roots,
            reachable,
        }
    }

    /// All reachable fn indices, in graph order.
    pub fn reachable_fns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.fns.len()).filter(|&i| self.reachable[i].is_some())
    }

    /// The qualified path of the witness root for fn `i`, if reachable.
    pub fn witness_root(&self, i: usize) -> Option<&str> {
        self.reachable[i].map(|r| self.fns[r].path.as_str())
    }

    /// Renders the graph as a deterministic JSON document: roots, then one
    /// record per fn with its resolved callee paths and reachability.
    pub fn to_json(&self) -> Json {
        let roots: Vec<Json> = self
            .roots
            .iter()
            .map(|&r| Json::Str(self.fns[r].path.clone()))
            .collect();
        let functions: Vec<Json> = self
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut callees: Vec<String> = self.edges[i]
                    .iter()
                    .map(|&j| self.fns[j].path.clone())
                    .collect();
                callees.sort();
                callees.dedup();
                let callees: Vec<Json> = callees.into_iter().map(Json::Str).collect();
                let mut obj = Json::obj()
                    .field("path", f.path.as_str())
                    .field("file", f.file.as_str())
                    .field("line", u64::from(f.line))
                    .field("method", f.is_method)
                    .field("hot", f.hot)
                    .field("calls", f.calls.len() as u64)
                    .field("resolved", callees)
                    .field("reachable", self.reachable[i].is_some());
                if let Some(root) = self.witness_root(i) {
                    obj = obj.field("root", root);
                }
                obj
            })
            .collect();
        Json::obj()
            .field("roots", roots)
            .field("functions", functions)
            .field("count", self.fns.len())
    }
}

/// Resolves one call site to candidate fn indices.
fn resolve(
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnDef,
    call: &Call,
) -> Vec<usize> {
    let Some(candidates) = by_name.get(call.name()) else {
        return Vec::new();
    };
    if call.segments.len() > 1 {
        // Qualified: match the written segments against the tail of each
        // candidate's qualified path.
        return candidates
            .iter()
            .copied()
            .filter(|&i| path_ends_with(&fns[i].path, &call.segments))
            .collect();
    }
    // Unqualified / method call: widening tiers. Method calls only bind
    // to fns with a `self` receiver.
    let eligible = |i: usize| !call.method || fns[i].is_method;
    let caller_crate = crate_of(&caller.file);
    let tiers: [&dyn Fn(usize) -> bool; 3] = [
        &|i: usize| fns[i].file == caller.file,
        &|i: usize| crate_of(&fns[i].file) == caller_crate,
        &|_: usize| true,
    ];
    for tier in tiers {
        let hits: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| eligible(i) && tier(i))
            .collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    Vec::new()
}

/// `true` when the `::`-separated `path` ends with exactly `segments`.
fn path_ends_with(path: &str, segments: &[String]) -> bool {
    let parts: Vec<&str> = path.split("::").collect();
    if segments.len() > parts.len() {
        return false;
    }
    parts[parts.len() - segments.len()..]
        .iter()
        .zip(segments)
        .all(|(p, s)| *p == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        CallGraph::build(&files)
    }

    const HOT: &str = "// lint:hot-path\n\
                       pub fn entry() { helper(); }\n\
                       fn helper() { leaf(); }\n\
                       fn leaf() {}\n\
                       fn unrelated() {}\n";

    #[test]
    fn reachability_follows_edges_from_roots() {
        let g = graph(&[("crates/sim/src/a.rs", HOT)]);
        let by_path: BTreeMap<&str, usize> = g
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.as_str(), i))
            .collect();
        assert!(g.reachable[by_path["sim::a::entry"]].is_some());
        assert!(g.reachable[by_path["sim::a::helper"]].is_some());
        assert!(g.reachable[by_path["sim::a::leaf"]].is_some());
        assert!(g.reachable[by_path["sim::a::unrelated"]].is_none());
        assert_eq!(
            g.witness_root(by_path["sim::a::leaf"]),
            Some("sim::a::entry")
        );
    }

    #[test]
    fn same_file_tier_shadows_workspace_candidates() {
        let g = graph(&[
            (
                "crates/sim/src/a.rs",
                "// lint:hot-path\nfn entry() { helper(); }\nfn helper() {}\n",
            ),
            (
                "crates/graph/src/b.rs",
                "fn helper() { stray(); }\nfn stray() {}\n",
            ),
        ]);
        let stray = g.fns.iter().position(|f| f.name == "stray").unwrap();
        assert!(
            g.reachable[stray].is_none(),
            "same-file helper must win over the cross-crate one"
        );
    }

    #[test]
    fn cross_crate_method_calls_resolve_at_the_workspace_tier() {
        let g = graph(&[
            (
                "crates/sim/src/a.rs",
                "// lint:hot-path\nfn entry(g: &G) { g.degree(0); }\n",
            ),
            (
                "crates/graph/src/b.rs",
                "pub struct G;\nimpl G {\n    pub fn degree(&self, v: usize) -> usize { v }\n}\n",
            ),
        ]);
        let degree = g.fns.iter().position(|f| f.name == "degree").unwrap();
        assert!(g.reachable[degree].is_some());
    }

    #[test]
    fn method_calls_do_not_bind_to_free_fns() {
        let g = graph(&[
            (
                "crates/sim/src/a.rs",
                "// lint:hot-path\nfn entry(x: &X) { x.emit(); }\n",
            ),
            (
                "crates/runtime/src/b.rs",
                "pub fn emit() { stray(); }\nfn stray() {}\n",
            ),
        ]);
        let stray = g.fns.iter().position(|f| f.name == "stray").unwrap();
        assert!(g.reachable[stray].is_none());
    }

    #[test]
    fn qualified_calls_match_path_tails() {
        let g = graph(&[
            (
                "crates/sim/src/a.rs",
                "// lint:hot-path\nfn entry() { other::Slab::insert(); }\n",
            ),
            (
                "crates/sim/src/other.rs",
                "pub struct Slab;\nimpl Slab {\n    pub fn insert() {}\n}\n\
                 pub struct Map;\nimpl Map {\n    pub fn insert() {}\n}\n",
            ),
        ]);
        let slab = g.fns.iter().position(|f| f.path.contains("Slab")).unwrap();
        let map = g.fns.iter().position(|f| f.path.contains("Map")).unwrap();
        assert!(g.reachable[slab].is_some());
        assert!(g.reachable[map].is_none());
    }

    #[test]
    fn graph_json_is_independent_of_file_order() {
        let a = ("crates/sim/src/a.rs", HOT);
        let b = (
            "crates/graph/src/b.rs",
            "pub fn leaf() {}\npub fn lone() { leaf(); }\n",
        );
        let fwd = graph(&[a, b]).to_json().render();
        let rev = graph(&[b, a]).to_json().render();
        assert_eq!(fwd, rev);
        assert!(oraclesize_runtime::json::parse(&fwd).is_some());
    }
}
