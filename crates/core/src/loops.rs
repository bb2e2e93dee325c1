//! Loop detection after Havlak: the loop structure graph (LSG).
//!
//! The paper (§II): *"MAO offers a loop detection mechanism based on Havlak.
//! It builds a hierarchical loop structure graph (LSG) representing the
//! nesting relationships of a given loop nest. ... The algorithm allows
//! distinguishing between reducible and irreducible loops."*
//!
//! This is Havlak's union-find refinement of Tarjan's interval algorithm
//! (*Nesting of reducible and irreducible loops*, TOPLAS 1997): one DFS, one
//! reverse-order pass collapsing loop bodies with union-find.

use crate::cfg::{BlockId, Cfg};

/// Classification of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Natural loop with a single-entry header.
    Reducible,
    /// Multiple-entry loop; passes decide their own policy for these.
    Irreducible,
    /// Single-block self loop.
    SelfLoop,
}

/// One loop in the LSG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Loop header block.
    pub header: BlockId,
    /// Kind.
    pub kind: LoopKind,
    /// Blocks directly in this loop, including the header and the headers of
    /// directly nested loops (but not the nested loops' other blocks).
    pub blocks: Vec<BlockId>,
    /// Parent loop index in [`LoopNest::loops`], `None` for outermost loops.
    pub parent: Option<usize>,
    /// Child loop indices.
    pub children: Vec<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// All blocks of this loop including nested loops' blocks.
    pub fn all_blocks(&self, nest: &LoopNest) -> Vec<BlockId> {
        let mut out = self.blocks.clone();
        for &c in &self.children {
            for b in nest.loops[c].all_blocks(nest) {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        out
    }
}

/// The hierarchical loop structure graph of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopNest {
    /// All loops, inner loops after their outer loops.
    pub loops: Vec<Loop>,
}

impl LoopNest {
    /// Number of loops found.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// No loops?
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Indices of loops with no children (the innermost ones — where the
    /// alignment passes operate).
    pub fn innermost(&self) -> Vec<usize> {
        (0..self.loops.len())
            .filter(|&i| self.loops[i].children.is_empty())
            .collect()
    }

    /// The innermost loop containing block `b`, if any.
    pub fn loop_of(&self, b: BlockId) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, l) in self.loops.iter().enumerate() {
            if l.blocks.contains(&b) {
                best = match best {
                    Some(j) if self.loops[j].depth >= l.depth => Some(j),
                    _ => Some(i),
                };
            }
        }
        best
    }
}

/// Union-find over block indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, child: usize, header: usize) {
        let c = self.find(child);
        let h = self.find(header);
        self.parent[c] = h;
    }
}

/// Find all loops of `cfg` with Havlak's algorithm.
pub fn find_loops(cfg: &Cfg) -> LoopNest {
    let n = cfg.len();
    if n == 0 {
        return LoopNest::default();
    }

    // 1. DFS numbering from the entry block.
    const UNVISITED: usize = usize::MAX;
    let mut number = vec![UNVISITED; n]; // block -> dfs index
    let mut last = vec![0usize; n]; // dfs index -> max dfs index in subtree
    let mut nodes: Vec<BlockId> = Vec::with_capacity(n); // dfs index -> block

    // Iterative DFS recording preorder numbers and subtree extents.
    {
        let mut stack: Vec<(BlockId, usize)> = vec![(0, 0)];
        number[0] = 0;
        nodes.push(0);
        while let Some(&mut (b, ref mut child_idx)) = stack.last_mut() {
            if *child_idx < cfg.blocks[b].succs.len() {
                let s = cfg.blocks[b].succs[*child_idx];
                *child_idx += 1;
                if number[s] == UNVISITED {
                    number[s] = nodes.len();
                    nodes.push(s);
                    stack.push((s, 0));
                }
            } else {
                last[number[b]] = nodes.len() - 1;
                stack.pop();
            }
        }
    }
    let dfs_count = nodes.len();
    let is_ancestor = |w: usize, v: usize, last: &[usize]| w <= v && v <= last[w];

    // 2. Split predecessors into back and non-back edges (in DFS space).
    let mut back_preds: Vec<Vec<usize>> = vec![Vec::new(); dfs_count];
    let mut non_back_preds: Vec<Vec<usize>> = vec![Vec::new(); dfs_count];
    for w in 0..dfs_count {
        let block = nodes[w];
        for &pb in &cfg.blocks[block].preds {
            if number[pb] == UNVISITED {
                continue; // unreachable predecessor
            }
            let v = number[pb];
            if is_ancestor(w, v, &last) {
                back_preds[w].push(v);
            } else {
                non_back_preds[w].push(v);
            }
        }
    }

    // 3. Reverse-order collapse with union-find.
    #[derive(Clone, Copy, PartialEq)]
    enum NodeType {
        NonHeader,
        Reducible,
        SelfLoop,
        Irreducible,
    }
    let mut types = vec![NodeType::NonHeader; dfs_count];
    let mut uf = UnionFind::new(dfs_count);
    // header[v] in DFS space: innermost loop header containing v.
    let mut header: Vec<Option<usize>> = vec![None; dfs_count];
    // Raw loops discovered: (header dfs, kind, body dfs list).
    let mut raw: Vec<(usize, LoopKind, Vec<usize>)> = Vec::new();

    for w in (0..dfs_count).rev() {
        let mut node_pool: Vec<usize> = Vec::new();
        for &v in &back_preds[w] {
            if v != w {
                let r = uf.find(v);
                if !node_pool.contains(&r) {
                    node_pool.push(r);
                }
            } else {
                types[w] = NodeType::SelfLoop;
            }
        }
        if !node_pool.is_empty() && types[w] == NodeType::NonHeader {
            types[w] = NodeType::Reducible;
        }

        let mut work_list = node_pool.clone();
        while let Some(x) = work_list.pop() {
            for i in 0..non_back_preds[x].len() {
                let y = non_back_preds[x][i];
                let yr = uf.find(y);
                if !is_ancestor(w, yr, &last) {
                    // Entry into the loop not through the header.
                    types[w] = NodeType::Irreducible;
                    if !non_back_preds[w].contains(&yr) {
                        non_back_preds[w].push(yr);
                    }
                } else if yr != w && !node_pool.contains(&yr) {
                    node_pool.push(yr);
                    work_list.push(yr);
                }
            }
        }

        if !node_pool.is_empty() || types[w] == NodeType::SelfLoop {
            let kind = match types[w] {
                NodeType::SelfLoop => LoopKind::SelfLoop,
                NodeType::Irreducible => LoopKind::Irreducible,
                _ => LoopKind::Reducible,
            };
            for &x in &node_pool {
                header[x] = Some(w);
                uf.union(x, w);
            }
            raw.push((w, kind, node_pool));
        }
    }

    // 4. Build the nest: loops were discovered inner-first (reverse DFS);
    //    nesting comes from the header[] chain of each loop's header node.
    let mut nest = LoopNest::default();
    // Map header dfs -> loop index; process outer loops first.
    raw.reverse();
    let mut loop_of_header: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for (hdr, kind, body) in raw {
        let parent = header[hdr].and_then(|h| loop_of_header.get(&h).copied());
        let depth = parent.map_or(1, |p| nest.loops[p].depth + 1);
        let mut blocks: Vec<BlockId> = vec![nodes[hdr]];
        for v in body {
            let b = nodes[v];
            if !blocks.contains(&b) {
                blocks.push(b);
            }
        }
        let idx = nest.loops.len();
        nest.loops.push(Loop {
            header: nodes[hdr],
            kind,
            blocks,
            parent,
            children: Vec::new(),
            depth,
        });
        if let Some(p) = parent {
            nest.loops[p].children.push(idx);
        }
        loop_of_header.insert(hdr, idx);
    }
    nest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::MaoUnit;

    fn loops_for(text: &str) -> (Cfg, LoopNest) {
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let nest = find_loops(&cfg);
        (cfg, nest)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let (_c, nest) = loops_for(".type f, @function\nf:\n\tnop\n\tret\n");
        assert!(nest.is_empty());
    }

    #[test]
    fn simple_loop() {
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
	movl $0, %eax
.L1:
	addl $1, %eax
	cmpl $10, %eax
	jne .L1
	ret
"#,
        );
        assert_eq!(nest.len(), 1);
        let l = &nest.loops[0];
        assert_eq!(l.kind, LoopKind::SelfLoop);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn two_block_loop_is_reducible() {
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
.L1:
	cmpl $0, %eax
	je .Lbody
	ret
.Lbody:
	addl $1, %eax
	jmp .L1
"#,
        );
        assert_eq!(nest.len(), 1);
        assert_eq!(nest.loops[0].kind, LoopKind::Reducible);
        assert!(nest.loops[0].blocks.len() >= 2);
    }

    #[test]
    fn nested_loops() {
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
	movl $0, %eax
.Louter:
	movl $0, %ebx
.Linner:
	addl $1, %ebx
	cmpl $2, %ebx
	jne .Linner
	addl $1, %eax
	cmpl $2, %eax
	jne .Louter
	ret
"#,
        );
        assert_eq!(nest.len(), 2);
        let inner_idx = nest
            .loops
            .iter()
            .position(|l| l.depth == 2)
            .expect("an inner loop");
        let inner = &nest.loops[inner_idx];
        let outer = &nest.loops[inner.parent.unwrap()];
        assert_eq!(outer.depth, 1);
        assert!(outer.children.contains(&inner_idx));
        assert_eq!(nest.innermost(), vec![inner_idx]);
        // loop_of picks the innermost containing loop for the inner header.
        assert_eq!(nest.loop_of(inner.header), Some(inner_idx));
    }

    #[test]
    fn irreducible_loop_detected() {
        // Two entries into the cycle .La <-> .Lb.
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
	cmpl $0, %eax
	je .Lb
.La:
	addl $1, %eax
	cmpl $5, %eax
	jl .Lb
	ret
.Lb:
	addl $2, %eax
	cmpl $9, %eax
	jl .La
	ret
"#,
        );
        assert!(
            nest.loops.iter().any(|l| l.kind == LoopKind::Irreducible),
            "found: {:?}",
            nest.loops.iter().map(|l| l.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_blocks_includes_children() {
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
.Louter:
	movl $0, %ebx
.Linner:
	addl $1, %ebx
	jne .Linner
	cmpl $2, %eax
	jne .Louter
	ret
"#,
        );
        let outer_idx = nest.loops.iter().position(|l| l.depth == 1).unwrap();
        let all = nest.loops[outer_idx].all_blocks(&nest);
        let inner_idx = nest.loops.iter().position(|l| l.depth == 2).unwrap();
        for b in &nest.loops[inner_idx].blocks {
            assert!(all.contains(b));
        }
    }

    /// Build a [`Cfg`] directly from an edge list — no assembly, no parser.
    /// Havlak runs purely on block structure, so hand-built graphs let the
    /// tests pin down exactly which shapes each classification covers.
    fn cfg_from_edges(n: usize, edges: &[(usize, usize)]) -> Cfg {
        let mut blocks = vec![crate::cfg::BasicBlock::default(); n];
        for &(a, b) in edges {
            blocks[a].succs.push(b);
            blocks[b].preds.push(a);
        }
        Cfg {
            blocks,
            unresolved_indirect: false,
            resolved_indirect: 0,
        }
    }

    #[test]
    fn hand_built_reducible_loop() {
        // 0 -> 1 -> 2 -> 3, with the back edge 2 -> 1: one natural loop
        // headed at 1 with body {1, 2}.
        let cfg = cfg_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let nest = find_loops(&cfg);
        assert_eq!(nest.len(), 1);
        let l = &nest.loops[0];
        assert_eq!(l.kind, LoopKind::Reducible);
        assert_eq!(l.header, 1);
        let mut blocks = l.blocks.clone();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![1, 2]);
    }

    #[test]
    fn hand_built_self_loop() {
        let cfg = cfg_from_edges(3, &[(0, 1), (1, 1), (1, 2)]);
        let nest = find_loops(&cfg);
        assert_eq!(nest.len(), 1);
        assert_eq!(nest.loops[0].kind, LoopKind::SelfLoop);
        assert_eq!(nest.loops[0].header, 1);
    }

    #[test]
    fn hand_built_irreducible_region() {
        // The classic two-entry cycle: both 1 and 2 are entered from the
        // entry block, and they branch to each other. Neither dominates the
        // other, so the region is irreducible.
        let cfg = cfg_from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 1), (1, 3)]);
        let nest = find_loops(&cfg);
        assert!(
            nest.loops.iter().any(|l| l.kind == LoopKind::Irreducible),
            "found: {:?}",
            nest.loops.iter().map(|l| l.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hand_built_nested_loops() {
        // Outer loop headed at 1 (back edge 3 -> 1) containing an inner
        // loop headed at 2 (back edge 3 -> 2).
        let cfg = cfg_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (1, 4)]);
        let nest = find_loops(&cfg);
        assert_eq!(nest.len(), 2);
        let inner_idx = nest.loops.iter().position(|l| l.header == 2).unwrap();
        let outer_idx = nest.loops.iter().position(|l| l.header == 1).unwrap();
        assert_eq!(nest.loops[inner_idx].depth, 2);
        assert_eq!(nest.loops[outer_idx].depth, 1);
        assert_eq!(nest.loops[inner_idx].parent, Some(outer_idx));
        assert!(nest.loops[outer_idx].children.contains(&inner_idx));
        assert_eq!(nest.innermost(), vec![inner_idx]);
        assert_eq!(nest.loop_of(3), Some(inner_idx));
    }

    #[test]
    fn loop_spanning_a_section_split_is_detected() {
        // The paper's cross-section case: a function interrupted mid-body by
        // a .rodata jump table and resumed in .text. The loop's back branch
        // lives in the second span; Havlak must still see one reducible
        // loop across the split.
        let (cfg, nest) = loops_for(
            r#"
	.text
	.type	f, @function
f:
	movl $0, %eax
.Lhead:
	addl $1, %eax
	jmp .Ltail
	.section	.rodata
.Ltable:
	.quad	.Lhead
	.text
.Ltail:
	cmpl $4, %eax
	jne .Lhead
	ret
"#,
        );
        assert!(cfg.len() >= 3, "spans produce a multi-block CFG");
        assert_eq!(nest.len(), 1);
        assert_eq!(nest.loops[0].kind, LoopKind::Reducible);
        assert!(nest.loops[0].blocks.len() >= 2);
    }

    #[test]
    fn unreachable_blocks_ignored() {
        let (_c, nest) = loops_for(
            r#"
	.type	f, @function
f:
	ret
.Ldead:
	jmp .Ldead
"#,
        );
        // The dead self-loop is not reachable from entry; Havlak runs on the
        // DFS tree only.
        assert!(nest.is_empty());
    }
}
