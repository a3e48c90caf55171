//! The affine loop-nest IR the analyzer consumes.
//!
//! A program is a sequence of nodes — serial sections and statically-
//! scheduled parallel loops — optionally repeated (iterative solvers).
//! Each node declares its array accesses with per-iteration patterns.
//! This captures exactly what the paper's ROSE-based analysis extracts
//! from OpenMP source: work partitioning plus DEF/USE sets per loop.

use hic_mem::Region;

/// Index of an array in the program's array table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub usize);

/// Per-iteration access pattern of one array reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Iteration `i` touches elements `[i*scale + lo, i*scale + hi)`.
    /// `Range{scale: 1, lo: 0, hi: 1}` is the plain `A[i]`;
    /// `Range{scale: m, lo: -m, hi: 2m}` is a row-stencil read.
    Range { scale: i64, lo: i64, hi: i64 },
    /// The whole array, or an unanalyzable reference.
    Whole,
    /// Indirect access: iteration `i` touches the elements listed in
    /// `elems[starts[i]..starts[i+1]]` (CSR-style). Resolved by the
    /// inspector at run time.
    Indirect { starts: Vec<u64>, elems: Vec<u64> },
}

impl Pattern {
    /// `A[i]`.
    pub fn ident() -> Pattern {
        Pattern::Range {
            scale: 1,
            lo: 0,
            hi: 1,
        }
    }

    /// Row access: iteration `i` touches row `i` of width `m`.
    pub fn row(m: i64) -> Pattern {
        Pattern::Range {
            scale: m,
            lo: 0,
            hi: m,
        }
    }

    /// Row stencil: iteration `i` reads rows `i-1 ..= i+1` of width `m`.
    pub fn row_stencil(m: i64) -> Pattern {
        Pattern::Range {
            scale: m,
            lo: -m,
            hi: 2 * m,
        }
    }

    /// Element interval `[lo, hi)` touched by iterations `[a, b)`,
    /// clamped to `[0, len)`. `None` if empty or unanalyzable.
    pub fn touched(&self, a: u64, b: u64, len: u64) -> Option<(u64, u64)> {
        match *self {
            Pattern::Range { scale, lo, hi } => {
                if a >= b {
                    return None;
                }
                let first = (a as i64) * scale + lo;
                let last = (b as i64 - 1) * scale + hi;
                let lo_c = first.max(0) as u64;
                let hi_c = (last.max(0) as u64).min(len);
                (lo_c < hi_c).then_some((lo_c, hi_c))
            }
            _ => None,
        }
    }

    /// Is this a perfectly tiling write pattern (each element produced by
    /// exactly one iteration)? Required to invert producer iterations.
    pub fn tiles_perfectly(&self) -> bool {
        matches!(*self, Pattern::Range { scale, lo, hi } if hi - lo == scale && scale > 0)
    }

    /// The iteration producing element `e` (valid only when
    /// `tiles_perfectly`). `None` when out of the pattern's image.
    pub fn producing_iter(&self, e: u64, iters: u64) -> Option<u64> {
        match *self {
            Pattern::Range { scale, lo, .. } if self.tiles_perfectly() => {
                let x = e as i64 - lo;
                if x < 0 {
                    return None;
                }
                let i = (x / scale) as u64;
                (i < iters).then_some(i)
            }
            _ => None,
        }
    }
}

/// One array reference of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    pub array: ArrayId,
    pub pattern: Pattern,
}

impl Access {
    pub fn new(array: ArrayId, pattern: Pattern) -> Access {
        Access { array, pattern }
    }

    pub fn whole(array: ArrayId) -> Access {
        Access {
            array,
            pattern: Pattern::Whole,
        }
    }
}

/// One node of the program.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A serial section, executed by thread 0 only (§V-A1: "our approach
    /// executes the serial section in only one thread").
    Serial {
        reads: Vec<Access>,
        writes: Vec<Access>,
    },
    /// A statically-scheduled parallel `for` loop.
    ParFor {
        iters: u64,
        reads: Vec<Access>,
        writes: Vec<Access>,
    },
}

impl Node {
    pub fn reads(&self) -> &[Access] {
        match self {
            Node::Serial { reads, .. } | Node::ParFor { reads, .. } => reads,
        }
    }

    pub fn writes(&self) -> &[Access] {
        match self {
            Node::Serial { writes, .. } | Node::ParFor { writes, .. } => writes,
        }
    }
}

/// A whole program: arrays (with their allocated regions) and a node
/// sequence, optionally repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Allocated region of each array.
    pub arrays: Vec<Region>,
    pub nodes: Vec<Node>,
    /// Does control flow loop back from the last node to the first
    /// (iterative solvers)? Determines reachability.
    pub repeat: bool,
}

impl Program {
    pub fn array_len(&self, a: ArrayId) -> u64 {
        self.arrays[a.0].words
    }

    /// Is node `j` reachable from node `i` along forward control flow?
    /// (The paper's interprocedural CFG traversal, §V-A1.) With `repeat`,
    /// every node reaches every node.
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        j > i || self.repeat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::WordAddr;

    #[test]
    fn identity_pattern_touch() {
        let p = Pattern::ident();
        assert_eq!(p.touched(4, 8, 100), Some((4, 8)));
        assert_eq!(p.touched(4, 4, 100), None);
        assert!(p.tiles_perfectly());
        assert_eq!(p.producing_iter(7, 100), Some(7));
        assert_eq!(p.producing_iter(100, 100), None);
    }

    #[test]
    fn row_pattern_touch_and_invert() {
        let p = Pattern::row(10);
        assert_eq!(p.touched(2, 4, 1000), Some((20, 40)));
        assert!(p.tiles_perfectly());
        assert_eq!(p.producing_iter(25, 100), Some(2));
    }

    #[test]
    fn stencil_pattern_clamps_at_edges() {
        let p = Pattern::row_stencil(10);
        // Iterations 0..2 read rows -1..2 -> clamped to [0, 30).
        assert_eq!(p.touched(0, 2, 1000), Some((0, 30)));
        // Last iteration of a 10-row array reads past the end -> clamped.
        assert_eq!(p.touched(9, 10, 100), Some((80, 100)));
        assert!(!p.tiles_perfectly(), "stencil reads overlap");
    }

    #[test]
    fn whole_pattern_is_unanalyzable() {
        assert_eq!(Pattern::Whole.touched(0, 10, 100), None);
        assert!(!Pattern::Whole.tiles_perfectly());
    }

    #[test]
    fn reachability() {
        let prog = Program {
            arrays: vec![Region::new(WordAddr(0), 10)],
            nodes: vec![
                Node::Serial {
                    reads: vec![],
                    writes: vec![],
                },
                Node::ParFor {
                    iters: 10,
                    reads: vec![],
                    writes: vec![],
                },
            ],
            repeat: false,
        };
        assert!(prog.reachable(0, 1));
        assert!(!prog.reachable(1, 0));
        let looped = Program {
            repeat: true,
            ..prog
        };
        assert!(looped.reachable(1, 0));
        assert!(looped.reachable(1, 1));
    }
}
