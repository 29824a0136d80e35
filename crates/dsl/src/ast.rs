//! Abstract syntax of heuristic expressions.
//!
//! The language is deliberately small: integers, feature reads, arithmetic,
//! comparisons, boolean logic, conditionals and a few intrinsic functions.
//! That is enough to express every heuristic the paper discusses — the
//! LRU/LFU seeds, GDSF-style size-frequency tradeoffs, the evolved Listing 1,
//! and AIMD/CUBIC-flavoured window updates — while keeping both the kbpf
//! lowering and the mock generator's mutation operators simple.
//!
//! ## One buffer per tree
//!
//! Every candidate the generator emits is parsed, checked and mostly thrown
//! away, so a tree is built to be cheap to make, copy and drop. An [`Expr`]
//! owns its nodes in one vector, in postorder: each node comes after its
//! operands, and the root is last. An operator node also records how many
//! nodes its subtree has, so a subtree is the run of nodes that ends at its
//! root, and an operator's operands are found by stepping back over their
//! sizes. The parser appends one node per reduction; cloning a tree is one
//! copy and dropping it is one free, however deep it is.
//!
//! Code outside this module never sees a node. It borrows a subtree as an
//! [`ExprRef`], a `Copy` view, and matches on [`ExprRef::kind`]; it builds
//! trees with the constructors on [`Expr`].

use crate::feature::Feature;
use std::fmt;
use std::ops::{self, Range};

/// Binary operators. Logical `And`/`Or` operate on truthiness (`x != 0`) and
/// produce `0`/`1`; everything else is `i64` arithmetic with the totalized
/// semantics documented in [`crate::eval`](crate::eval()).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Faults on a zero divisor.
    Div,
    /// Signed remainder. Faults on a zero divisor.
    Rem,
    Min,
    Max,
    /// Logical and (short-circuiting in the interpreter).
    And,
    /// Logical or (short-circuiting in the interpreter).
    Or,
    /// Left shift; amount clamped to `[0, 63]`, result saturating.
    Shl,
    /// Arithmetic right shift; amount clamped to `[0, 63]`.
    Shr,
}

impl BinOp {
    /// Every binary operator, in declaration order.
    pub const ALL: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Source token for this operator (`Min`/`Max` print as calls instead).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Comparison operators; result is `0` or `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Every comparison, in declaration order.
    pub const ALL: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

    /// Source token for this comparison.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Apply the comparison.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        };
        r as i64
    }
}

/// One node of a tree's buffer. An operator carries the node count of its
/// subtree, itself included; a leaf's is 1.
#[derive(Clone, Copy, PartialEq)]
enum Node {
    Int(i64),
    Float(f64),
    Feat(Feature),
    Neg(u32),
    Not(u32),
    Abs(u32),
    Bin(BinOp, u32),
    Cmp(CmpOp, u32),
    If(u32),
    Clamp(u32),
}

// a tag, an operator and a count share the first word; a literal the second
const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    #[inline]
    fn size(self) -> usize {
        match self {
            Node::Int(_) | Node::Float(_) | Node::Feat(_) => 1,
            Node::Neg(n)
            | Node::Not(n)
            | Node::Abs(n)
            | Node::Bin(_, n)
            | Node::Cmp(_, n)
            | Node::If(n)
            | Node::Clamp(n) => n as usize,
        }
    }

    /// The same operator over a subtree of `n` nodes.
    fn with_size(self, n: u32) -> Node {
        match self {
            Node::Int(_) | Node::Float(_) | Node::Feat(_) => self,
            Node::Neg(_) => Node::Neg(n),
            Node::Not(_) => Node::Not(n),
            Node::Abs(_) => Node::Abs(n),
            Node::Bin(op, _) => Node::Bin(op, n),
            Node::Cmp(op, _) => Node::Cmp(op, n),
            Node::If(_) => Node::If(n),
            Node::Clamp(_) => Node::Clamp(n),
        }
    }
}

fn count(n: usize) -> u32 {
    u32::try_from(n).expect("a tree has fewer than 2^32 nodes")
}

/// An expression tree: its nodes in one buffer, in postorder.
///
/// `Clone` copies the buffer and `==` compares it, which is the same as
/// comparing the trees.
#[derive(Clone, PartialEq)]
pub struct Expr {
    nodes: Vec<Node>,
}

/// A borrowed subtree of an [`Expr`].
#[derive(Clone, Copy, PartialEq)]
pub struct ExprRef<'a> {
    /// The subtree's nodes; the root is the last.
    nodes: &'a [Node],
}

/// What the root of a subtree is, with its operands as views.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind<'a> {
    /// Integer literal.
    Int(i64),
    /// Float literal — *always* a type error; exists so the generator can
    /// emit the paper's most common class of non-conforming code (§5.0.3).
    Float(f64),
    /// Feature (environment) read.
    Feat(Feature),
    /// Arithmetic negation (saturating).
    Neg(ExprRef<'a>),
    /// Logical not: `!x == (x == 0)`.
    Not(ExprRef<'a>),
    /// Absolute value (saturating).
    Abs(ExprRef<'a>),
    /// Binary operation.
    Bin(BinOp, ExprRef<'a>, ExprRef<'a>),
    /// Comparison producing `0`/`1`.
    Cmp(CmpOp, ExprRef<'a>, ExprRef<'a>),
    /// `if(cond, then, else)` — also printable as `cond ? then : else`.
    If(ExprRef<'a>, ExprRef<'a>, ExprRef<'a>),
    /// `clamp(x, lo, hi) == max(lo, min(x, hi))`.
    Clamp(ExprRef<'a>, ExprRef<'a>, ExprRef<'a>),
}

impl<'a> ExprKind<'a> {
    /// This node over the operands `f` makes of its own: a leaf as it is,
    /// an operator with each operand replaced by `f(operand)`.
    pub fn map(self, mut f: impl FnMut(ExprRef<'a>) -> Expr) -> Expr {
        match self {
            ExprKind::Int(v) => Expr::int(v),
            ExprKind::Float(v) => Expr::float(v),
            ExprKind::Feat(feat) => Expr::feat(feat),
            ExprKind::Neg(a) => -f(a),
            ExprKind::Not(a) => !f(a),
            ExprKind::Abs(a) => Expr::abs(f(a)),
            ExprKind::Bin(op, a, b) => Expr::bin(op, f(a), f(b)),
            ExprKind::Cmp(op, a, b) => Expr::cmp(op, f(a), f(b)),
            ExprKind::If(a, b, c) => Expr::ite(f(a), f(b), f(c)),
            ExprKind::Clamp(a, b, c) => Expr::clamp(f(a), f(b), f(c)),
        }
    }
}

impl<'a> ExprRef<'a> {
    /// The root and its operands.
    // Always inlined: out of line, every walk pays a call and a stack copy
    // of the `ExprKind` per node before it can match on it.
    #[inline(always)]
    pub fn kind(self) -> ExprKind<'a> {
        let (&root, operands) = self.nodes.split_last().expect("a tree has a root");
        let operands = ExprRef { nodes: operands };
        match root {
            Node::Int(v) => ExprKind::Int(v),
            Node::Float(v) => ExprKind::Float(v),
            Node::Feat(f) => ExprKind::Feat(f),
            Node::Neg(_) => ExprKind::Neg(operands),
            Node::Not(_) => ExprKind::Not(operands),
            Node::Abs(_) => ExprKind::Abs(operands),
            Node::Bin(op, _) => {
                let (a, b) = operands.split_last_operand();
                ExprKind::Bin(op, a, b)
            }
            Node::Cmp(op, _) => {
                let (a, b) = operands.split_last_operand();
                ExprKind::Cmp(op, a, b)
            }
            Node::If(_) => {
                let (ab, c) = operands.split_last_operand();
                let (a, b) = ab.split_last_operand();
                ExprKind::If(a, b, c)
            }
            Node::Clamp(_) => {
                let (ab, c) = operands.split_last_operand();
                let (a, b) = ab.split_last_operand();
                ExprKind::Clamp(a, b, c)
            }
        }
    }

    /// Operands back to back, as the ones before the last and the last.
    #[inline]
    fn split_last_operand(self) -> (ExprRef<'a>, ExprRef<'a>) {
        let last = self.nodes.last().expect("an operator has operands").size();
        let (rest, last) = self.nodes.split_at(self.nodes.len() - last);
        (ExprRef { nodes: rest }, ExprRef { nodes: last })
    }

    /// Number of nodes in the subtree.
    #[inline]
    pub fn size(self) -> usize {
        self.nodes.len()
    }

    /// Every subtree, one per node, in postorder: operands before their
    /// operator, and `self` last. The `i`-th is rooted at buffer position
    /// `i`, so it starts at `i + 1 - size()`.
    pub(crate) fn subtrees(
        self,
    ) -> impl DoubleEndedIterator<Item = ExprRef<'a>> + ExactSizeIterator {
        (0..self.nodes.len())
            .map(move |end| ExprRef { nodes: &self.nodes[end + 1 - self.nodes[end].size()..=end] })
    }

    /// Does the subtree contain a division or remainder anywhere?
    pub(crate) fn contains_div(self) -> bool {
        self.nodes.iter().any(|n| matches!(n, Node::Bin(BinOp::Div | BinOp::Rem, _)))
    }

    /// Where in the buffer the subtree of the `idx`-th node in pre-order
    /// lies. The nodes before an operator's root are its operands' subtrees
    /// back to back, so pre-order index `i > 0` of the subtree at `span` is
    /// in the operand that holds buffer position `span.start + i - 1`.
    fn locate(self, mut idx: usize) -> Option<Range<usize>> {
        let mut span = 0..self.nodes.len();
        if idx >= span.len() {
            return None;
        }
        while idx > 0 {
            let at = span.start + idx - 1;
            let mut end = span.end - 1;
            loop {
                let start = end - self.nodes[end - 1].size();
                if at >= start {
                    (span, idx) = (start..end, at - start);
                    break;
                }
                end = start;
            }
        }
        Some(span)
    }

    /// An owned copy of the subtree.
    pub fn to_expr(self) -> Expr {
        Expr { nodes: self.nodes.to_vec() }
    }
}

impl Expr {
    fn leaf(node: Node) -> Expr {
        Expr { nodes: vec![node] }
    }

    /// `operands`' buffers back to back, closed by the operator `node`
    /// makes for their total size.
    fn operator<const N: usize>(operands: [Expr; N], node: impl FnOnce(u32) -> Node) -> Expr {
        let mut it = operands.into_iter();
        let mut tree = Builder { nodes: it.next().expect("an operator has operands").nodes };
        for e in it {
            tree.nodes.extend_from_slice(&e.nodes);
        }
        tree.close(0, node);
        tree.finish()
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::leaf(Node::Int(v))
    }

    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::leaf(Node::Float(v))
    }

    /// Feature read.
    pub fn feat(f: Feature) -> Expr {
        Expr::leaf(Node::Feat(f))
    }

    /// Absolute value.
    pub fn abs(a: Expr) -> Expr {
        Expr::operator([a], Node::Abs)
    }

    /// Binary operation.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::operator([a, b], |n| Node::Bin(op, n))
    }

    /// Comparison.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::operator([a, b], |n| Node::Cmp(op, n))
    }

    /// Conditional.
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::operator([c, t, e], Node::If)
    }

    /// `clamp(x, lo, hi)`.
    pub fn clamp(x: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::operator([x, lo, hi], Node::Clamp)
    }

    /// The whole tree as a view.
    #[inline]
    pub fn view(&self) -> ExprRef<'_> {
        ExprRef { nodes: &self.nodes }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum nesting depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        // postorder: each operator pops its operands' depths
        let mut stack: Vec<usize> = Vec::new();
        for node in &self.nodes {
            let arity = match node {
                Node::Int(_) | Node::Float(_) | Node::Feat(_) => 0,
                Node::Neg(_) | Node::Not(_) | Node::Abs(_) => 1,
                Node::Bin(..) | Node::Cmp(..) => 2,
                Node::If(_) | Node::Clamp(_) => 3,
            };
            let deepest = stack.drain(stack.len() - arity..).max().unwrap_or(0);
            stack.push(deepest + 1);
        }
        stack[0]
    }

    /// Every distinct feature read anywhere in the tree, in pre-order of
    /// first read. Leaves come in the same order in postorder and
    /// pre-order, so this is one scan of the buffer.
    pub fn features(&self) -> Vec<Feature> {
        let mut out = Vec::new();
        for node in &self.nodes {
            if let Node::Feat(f) = node {
                if !out.contains(f) {
                    out.push(*f);
                }
            }
        }
        out
    }

    /// Does the tree contain a float literal anywhere?
    pub fn contains_float(&self) -> bool {
        self.nodes.iter().any(|n| matches!(n, Node::Float(_)))
    }

    /// Does the tree contain a division or remainder anywhere?
    pub fn contains_div(&self) -> bool {
        self.view().contains_div()
    }

    /// Get the `idx`-th node in pre-order (0 is the root). Used by the
    /// generator to pick a uniformly random subtree for mutation.
    pub fn get_subexpr(&self, idx: usize) -> Option<ExprRef<'_>> {
        self.view().locate(idx).map(|span| ExprRef { nodes: &self.nodes[span] })
    }

    /// Return a copy of the tree with the `idx`-th pre-order node replaced
    /// by `new`. Returns the tree unchanged if `idx` is out of range.
    ///
    /// The replaced subtree's nodes give way to `new`'s; of the nodes after
    /// it, the ones whose subtree held it are its ancestors, and their
    /// sizes change by the difference.
    pub fn replace_subexpr(&self, idx: usize, new: &Expr) -> Expr {
        let Some(span) = self.view().locate(idx) else { return self.clone() };
        let grown = |n: usize| count(n - span.len() + new.size());
        let mut nodes = Vec::with_capacity(self.size() - span.len() + new.size());
        nodes.extend_from_slice(&self.nodes[..span.start]);
        nodes.extend_from_slice(&new.nodes);
        nodes.extend(self.nodes[span.end..].iter().enumerate().map(|(i, &node)| {
            let n = node.size();
            if span.end + i + 1 - n <= span.start {
                node.with_size(grown(n))
            } else {
                node
            }
        }));
        Expr { nodes }
    }
}

/// `-e`: arithmetic negation. Unlike the parser, this does not fold a
/// literal operand: `-Expr::int(5)` is a negation node.
impl ops::Neg for Expr {
    type Output = Expr;

    fn neg(self) -> Expr {
        Expr::operator([self], Node::Neg)
    }
}

/// `!e`: logical not.
impl ops::Not for Expr {
    type Output = Expr;

    fn not(self) -> Expr {
        Expr::operator([self], Node::Not)
    }
}

impl fmt::Debug for ExprRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind().fmt(f)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A forest being built in postorder, the way the parser reduces: each
/// operator is appended after its operands. An operand is named by where it
/// starts, the buffer length before its first node was appended.
pub(crate) struct Builder {
    nodes: Vec<Node>,
}

impl Builder {
    /// An empty builder with room for `n` nodes.
    pub(crate) fn with_capacity(n: usize) -> Builder {
        Builder { nodes: Vec::with_capacity(n) }
    }

    /// Where the next subtree starts.
    pub(crate) fn mark(&self) -> usize {
        self.nodes.len()
    }

    /// Append the operator `node` makes for the subtree since `start`.
    fn close(&mut self, start: usize, node: impl FnOnce(u32) -> Node) {
        let n = count(self.nodes.len() - start + 1);
        self.nodes.push(node(n));
    }

    pub(crate) fn int(&mut self, v: i64) {
        self.nodes.push(Node::Int(v));
    }

    pub(crate) fn float(&mut self, v: f64) {
        self.nodes.push(Node::Float(v));
    }

    pub(crate) fn feat(&mut self, f: Feature) {
        self.nodes.push(Node::Feat(f));
    }

    /// Negate the operand since `start`. A literal operand folds into a
    /// negative literal, so the generator's constant mutations see `-5` as
    /// one node (`-i64::MIN` saturates).
    pub(crate) fn negate(&mut self, start: usize) {
        let literal = (self.nodes.len() == start + 1).then(|| self.nodes[start]);
        match literal {
            Some(Node::Int(v)) => {
                self.nodes[start] = Node::Int(v.checked_neg().unwrap_or(i64::MAX))
            }
            Some(Node::Float(v)) => self.nodes[start] = Node::Float(-v),
            _ => self.close(start, Node::Neg),
        }
    }

    pub(crate) fn not(&mut self, start: usize) {
        self.close(start, Node::Not);
    }

    pub(crate) fn abs(&mut self, start: usize) {
        self.close(start, Node::Abs);
    }

    pub(crate) fn bin(&mut self, op: BinOp, start: usize) {
        self.close(start, |n| Node::Bin(op, n));
    }

    pub(crate) fn cmp(&mut self, op: CmpOp, start: usize) {
        self.close(start, |n| Node::Cmp(op, n));
    }

    pub(crate) fn ite(&mut self, start: usize) {
        self.close(start, Node::If);
    }

    pub(crate) fn clamp(&mut self, start: usize) {
        self.close(start, Node::Clamp);
    }

    /// The one tree built.
    pub(crate) fn finish(self) -> Expr {
        debug_assert_eq!(self.nodes.last().map(|n| n.size()), Some(self.nodes.len()));
        Expr { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;

    fn sample() -> Expr {
        // obj.count * 20 - obj.age / 300
        Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Mul, Expr::feat(Feature::ObjCount), Expr::int(20)),
            Expr::bin(BinOp::Div, Expr::feat(Feature::ObjAge), Expr::int(300)),
        )
    }

    #[test]
    fn size_and_depth() {
        let e = sample();
        assert_eq!(e.size(), 7);
        assert_eq!(e.depth(), 3);
        assert_eq!(Expr::int(1).size(), 1);
        assert_eq!(Expr::int(1).depth(), 1);
        let lopsided = Expr::ite(Expr::int(1), -(-Expr::int(2)), Expr::int(3));
        assert_eq!(lopsided.depth(), 4);
    }

    #[test]
    fn kind_views_operands_in_source_order() {
        let e = sample();
        let ExprKind::Bin(BinOp::Sub, a, b) = e.view().kind() else { panic!("{e:?}") };
        assert_eq!(
            a.kind(),
            Expr::bin(BinOp::Mul, Expr::feat(Feature::ObjCount), Expr::int(20)).view().kind()
        );
        assert_eq!(b.to_expr(), Expr::bin(BinOp::Div, Expr::feat(Feature::ObjAge), Expr::int(300)));
        let clamp = Expr::clamp(sample(), Expr::int(1), Expr::feat(Feature::ObjSize));
        let ExprKind::Clamp(x, lo, hi) = clamp.view().kind() else { panic!("{clamp:?}") };
        assert_eq!(
            (x.to_expr(), lo.kind(), hi.kind()),
            (e, ExprKind::Int(1), ExprKind::Feat(Feature::ObjSize))
        );
    }

    #[test]
    fn debug_prints_the_tree() {
        assert_eq!(
            format!("{:?}", -sample()),
            "Neg(Bin(Sub, Bin(Mul, Feat(ObjCount), Int(20)), Bin(Div, Feat(ObjAge), Int(300))))"
        );
    }

    #[test]
    fn features_deduplicated() {
        let e = Expr::bin(BinOp::Add, Expr::feat(Feature::ObjCount), Expr::feat(Feature::ObjCount));
        assert_eq!(e.features(), vec![Feature::ObjCount]);
    }

    #[test]
    fn contains_checks() {
        assert!(sample().contains_div());
        assert!(!sample().contains_float());
        let f = Expr::bin(BinOp::Add, Expr::float(0.5), Expr::int(1));
        assert!(f.contains_float());
        assert!(!f.contains_div());
    }

    #[test]
    fn get_subexpr_preorder() {
        let e = sample();
        assert_eq!(e.get_subexpr(0), Some(e.view()));
        // pre-order: root(Sub)=0, Mul=1, ObjCount=2, 20=3, Div=4, ObjAge=5, 300=6
        assert_eq!(e.get_subexpr(3).map(ExprRef::to_expr), Some(Expr::int(20)));
        assert_eq!(e.get_subexpr(4).map(ExprRef::size), Some(3));
        assert_eq!(e.get_subexpr(6).map(ExprRef::to_expr), Some(Expr::int(300)));
        assert_eq!(e.get_subexpr(7), None);
    }

    #[test]
    fn replace_subexpr_roundtrip() {
        let e = sample();
        let r = e.replace_subexpr(3, &Expr::int(99));
        assert_eq!(r.get_subexpr(3).map(ExprRef::to_expr), Some(Expr::int(99)));
        // everything else untouched
        assert_eq!(r.get_subexpr(6).map(ExprRef::to_expr), Some(Expr::int(300)));
        // out-of-range replacement is identity
        assert_eq!(e.replace_subexpr(100, &Expr::int(0)), e);
        // a bigger and a smaller graft resize every ancestor, and only them
        let grown = e.replace_subexpr(2, &sample());
        assert_eq!(
            grown,
            Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::Mul, sample(), Expr::int(20)),
                Expr::bin(BinOp::Div, Expr::feat(Feature::ObjAge), Expr::int(300)),
            )
        );
        assert_eq!(grown.replace_subexpr(1, &Expr::int(7)).replace_subexpr(0, &e), e);
    }

    #[test]
    fn cmp_apply() {
        assert_eq!(CmpOp::Lt.apply(1, 2), 1);
        assert_eq!(CmpOp::Ge.apply(1, 2), 0);
        assert_eq!(CmpOp::Eq.apply(5, 5), 1);
        assert_eq!(CmpOp::Ne.apply(5, 5), 0);
    }
}
