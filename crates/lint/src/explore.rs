//! Shared state-space exploration primitives for the model checkers.
//!
//! Both checkers — the refresh-mechanism checker ([`crate::mech`]) and
//! the ROP engine checker ([`crate::rop`]) — discover their graph on
//! the fly by driving real implementations and hashing visited states.
//! They share a hashed visited set ([`VisitedSet`]) keyed by
//! [`fingerprint`]s of canonicalized state words, and a [`SearchGraph`]
//! that records the discovered transition system compactly (node ids,
//! marked edges, parent pointers) so counterexample paths can be
//! replayed and liveness decided after the search finishes.

use std::collections::HashMap;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive hash of a state's canonical words. Collisions are
/// possible in principle (64-bit) but the spaces explored here are
/// tiny (≤ millions of states) against a 2⁶⁴ key space.
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut h = 0x524f_505f_4d45_4348u64; // "ROP_MECH"
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// Hashed visited-state set keyed by [`fingerprint`]. Each distinct
/// fingerprint is interned to a dense id (assigned in first-visit
/// order), which is what lets the on-the-fly search record edges *to
/// already-visited states* — without those back/cross edges the
/// liveness closure would see a tree and convict every leaf.
#[derive(Debug, Default)]
pub struct VisitedSet {
    ids: HashMap<u64, usize>,
}

impl VisitedSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a fingerprint: `(true, id)` when it was new, `(false,
    /// id)` with the previously assigned id otherwise. Ids are dense
    /// and start at 0.
    pub fn intern(&mut self, fp: u64) -> (bool, usize) {
        let next = self.ids.len();
        match self.ids.entry(fp) {
            std::collections::hash_map::Entry::Occupied(e) => (false, *e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                (true, next)
            }
        }
    }

    /// Inserts a fingerprint; `true` when it was new.
    pub fn insert(&mut self, fp: u64) -> bool {
        self.intern(fp).0
    }

    /// Distinct fingerprints seen.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been visited.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The transition system an on-the-fly search discovers: nodes are
/// canonical-state ids in visit order, edges carry the choice index
/// that produced them plus a bitmask of progress marks (for the
/// mechanism checker: "this transition issued a refresh"; the ROP
/// checker marks "prefetched" and "trained" separately). Parent pointers
/// reconstruct the first-visit path to any node, which is what turns
/// an invariant hit deep in the search back into a replayable trace.
#[derive(Debug, Default)]
pub struct SearchGraph {
    /// `(parent, choice)` per node; the root is `(0, usize::MAX)`.
    parents: Vec<(usize, usize)>,
    /// `(from, to, marks)` per discovered transition.
    edges: Vec<(usize, usize, u8)>,
}

impl SearchGraph {
    /// A graph containing only the root node (id 0).
    pub fn new() -> Self {
        SearchGraph {
            parents: vec![(0, usize::MAX)],
            edges: Vec::new(),
        }
    }

    /// Registers a newly discovered node reached from `parent` by
    /// `choice`; returns its id.
    pub fn add_node(&mut self, parent: usize, choice: usize) -> usize {
        self.parents.push((parent, choice));
        self.parents.len() - 1
    }

    /// Records a transition (to an old or new node) with its progress
    /// marks.
    pub fn add_edge(&mut self, from: usize, to: usize, marks: u8) {
        self.edges.push((from, to, marks));
    }

    /// Number of nodes discovered (including the root).
    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    /// Number of transitions recorded.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The choice sequence of the first-visit path from the root to
    /// `node` (empty for the root itself).
    pub fn path_to(&self, node: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut n = node;
        while n != 0 {
            let (parent, choice) = self.parents[n];
            path.push(choice);
            n = parent;
        }
        path.reverse();
        path
    }

    /// Nodes from which a transition carrying `mark` is still reachable
    /// — the complement is the livelock set. Nodes listed in
    /// `assume_live` (e.g. an unexpanded depth-capped frontier) are
    /// granted progress unconditionally, keeping the check sound under
    /// truncation: a cut-off node might have progressed had the search
    /// continued, so only fully expanded nodes may be convicted.
    pub fn live_nodes(&self, mark: u8, assume_live: &[usize]) -> Vec<bool> {
        let mut live = vec![false; self.parents.len()];
        for &n in assume_live {
            live[n] = true;
        }
        for &(from, _, marks) in &self.edges {
            if marks & mark != 0 {
                live[from] = true;
            }
        }
        loop {
            let mut grew = false;
            for &(from, to, _) in &self.edges {
                if live[to] && !live[from] {
                    live[from] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_order_sensitive_and_stable() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
        let mut v = VisitedSet::new();
        assert!(v.insert(fingerprint(&[1])));
        assert!(!v.insert(fingerprint(&[1])));
        assert_eq!(v.len(), 1);
        assert_eq!(v.intern(fingerprint(&[1])), (false, 0));
        assert_eq!(v.intern(fingerprint(&[2])), (true, 1));
    }

    #[test]
    fn search_graph_paths_and_liveness() {
        let mut g = SearchGraph::new();
        let a = g.add_node(0, 7); // root --7--> a
        g.add_edge(0, a, 0);
        let b = g.add_node(a, 3); // a --3--> b
        g.add_edge(a, b, 1); // the only edge marked 1
        let c = g.add_node(b, 1); // b --1--> c (a sink)
        g.add_edge(b, c, 2); // the only edge marked 2
        assert_eq!(g.path_to(c), vec![7, 3, 1]);
        assert_eq!(g.path_to(0), Vec::<usize>::new());
        let live = g.live_nodes(1, &[]);
        // Root and `a` can still take the mark-1 edge; `b` and the
        // sink `c` can never progress again.
        assert!(live[0] && live[a]);
        assert!(!live[b] && !live[c]);
        // Mark 2 is one step further on: `b` reaches it too.
        let live = g.live_nodes(2, &[]);
        assert!(live[0] && live[a] && live[b] && !live[c]);
        // Granting the sink frontier status flips it — and `b`, which
        // can reach it.
        let live = g.live_nodes(1, &[c]);
        assert!(live[b] && live[c]);
    }
}
