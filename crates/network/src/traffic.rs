//! Traffic patterns.
//!
//! The paper evaluates uniformly distributed traffic ("selected since we
//! are comparing flow control techniques, which are relatively invariant
//! to traffic patterns"); the classical permutation patterns are provided
//! for the invariance check and as extensions.

use crate::topology::Mesh;
use rand::Rng;
use std::fmt;

/// A destination distribution over nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Uniform random over all nodes except the source (the paper's
    /// workload).
    Uniform,
    /// Coordinate transpose: (x, y) → (y, x).
    Transpose,
    /// Bit complement of the node index.
    BitComplement,
    /// Tornado: halfway around each dimension.
    Tornado,
    /// Nearest neighbor: +1 in dimension 0.
    NearestNeighbor,
    /// A fraction `hotness` of traffic targets `hotspot`, the rest is
    /// uniform.
    Hotspot {
        /// The hot node.
        hotspot: usize,
        /// Fraction of packets targeting it, in `[0, 1]`.
        hotness: f64,
    },
}

impl TrafficPattern {
    /// Draws a destination for a packet from `src`. May return `src` only
    /// for degenerate permutation fixed points (e.g. transpose diagonal),
    /// in which case callers typically skip injection.
    pub fn destination<R: Rng + ?Sized>(&self, mesh: &Mesh, src: usize, rng: &mut R) -> usize {
        let n = mesh.nodes();
        match self {
            TrafficPattern::Uniform => {
                let d = rng.gen_range(0..n - 1);
                if d >= src {
                    d + 1
                } else {
                    d
                }
            }
            // The permutations work on the node index digit by digit
            // (digit `d` is the coordinate in dimension `d`), without
            // building coordinate vectors.
            TrafficPattern::Transpose => {
                // Reversing the digits: Horner from the lowest digit up.
                let (k, mut rest) = (mesh.radix(), src);
                (0..mesh.dims()).fold(0, |acc, _| {
                    let c = rest % k;
                    rest /= k;
                    acc * k + c
                })
            }
            TrafficPattern::BitComplement => n - 1 - src,
            TrafficPattern::Tornado => {
                let (k, half) = (mesh.radix(), mesh.radix() / 2);
                let (mut rest, mut place, mut dest) = (src, 1, 0);
                for _ in 0..mesh.dims() {
                    dest += (rest % k + half) % k * place;
                    rest /= k;
                    place *= k;
                }
                dest
            }
            TrafficPattern::NearestNeighbor => {
                let (k, c) = (mesh.radix(), src % mesh.radix());
                src - c + (c + 1) % k
            }
            TrafficPattern::Hotspot { hotspot, hotness } => {
                if rng.gen_bool(hotness.clamp(0.0, 1.0)) {
                    *hotspot
                } else {
                    TrafficPattern::Uniform.destination(mesh, src, rng)
                }
            }
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::Uniform => write!(f, "uniform"),
            TrafficPattern::Transpose => write!(f, "transpose"),
            TrafficPattern::BitComplement => write!(f, "bit-complement"),
            TrafficPattern::Tornado => write!(f, "tornado"),
            TrafficPattern::NearestNeighbor => write!(f, "nearest-neighbor"),
            TrafficPattern::Hotspot { hotspot, hotness } => {
                write!(f, "hotspot({hotspot}, {hotness:.2})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_never_targets_self_and_covers_everyone() {
        let m = Mesh::new(4, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = vec![false; m.nodes()];
        for _ in 0..2000 {
            let d = TrafficPattern::Uniform.destination(&m, 5, &mut rng);
            assert_ne!(d, 5);
            seen[d] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, m.nodes() - 1, "all other nodes reachable");
    }

    #[test]
    fn transpose_diagonal_is_a_fixed_point() {
        // (d, d) → (d, d): the permutation maps diagonal nodes to
        // themselves. `destination` reports the fixed point as-is; the
        // *source* is responsible for skipping the injection (see
        // `source::transpose_diagonal_never_injects`).
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        for d in 0..8 {
            let src = m.node_at(&[d, d]);
            assert_eq!(
                TrafficPattern::Transpose.destination(&m, src, &mut rng),
                src
            );
        }
    }

    #[test]
    fn bit_complement_and_tornado_have_no_fixed_points_on_even_radix() {
        // The injection-skip path is transpose-specific on an 8×8 mesh:
        // the other permutations move every node (even radix), so they
        // never hit it.
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        for src in 0..m.nodes() {
            assert_ne!(
                TrafficPattern::BitComplement.destination(&m, src, &mut rng),
                src
            );
            assert_ne!(TrafficPattern::Tornado.destination(&m, src, &mut rng), src);
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let src = m.node_at(&[2, 5]);
        let d = TrafficPattern::Transpose.destination(&m, src, &mut rng);
        assert_eq!(m.coords(d), vec![5, 2]);
    }

    #[test]
    fn bit_complement_mirrors() {
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let d = TrafficPattern::BitComplement.destination(&m, 0, &mut rng);
        assert_eq!(d, 63);
    }

    #[test]
    fn tornado_moves_half_way() {
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let src = m.node_at(&[1, 6]);
        let d = TrafficPattern::Tornado.destination(&m, src, &mut rng);
        assert_eq!(m.coords(d), vec![5, 2]);
    }

    #[test]
    fn permutations_match_their_coordinate_definitions() {
        let mut rng = SmallRng::seed_from_u64(0);
        for m in [
            Mesh::new(8, 2),
            Mesh::new(5, 2),
            Mesh::new(3, 3),
            Mesh::new(4, 1),
        ] {
            let k = m.radix();
            for src in 0..m.nodes() {
                let c = m.coords(src);
                let mut t = c.clone();
                t.reverse();
                let tornado: Vec<usize> = c.iter().map(|&x| (x + k / 2) % k).collect();
                let mut nn = c.clone();
                nn[0] = (nn[0] + 1) % k;
                for (pattern, want) in [
                    (TrafficPattern::Transpose, m.node_at(&t)),
                    (TrafficPattern::Tornado, m.node_at(&tornado)),
                    (TrafficPattern::NearestNeighbor, m.node_at(&nn)),
                ] {
                    assert_eq!(
                        pattern.destination(&m, src, &mut rng),
                        want,
                        "{pattern} {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let m = Mesh::new(4, 2);
        let mut rng = SmallRng::seed_from_u64(3);
        let pattern = TrafficPattern::Hotspot {
            hotspot: 9,
            hotness: 0.7,
        };
        let hits = (0..1000)
            .filter(|_| pattern.destination(&m, 0, &mut rng) == 9)
            .count();
        assert!((600..800).contains(&hits), "got {hits} / 1000");
    }

    #[test]
    fn nearest_neighbor_is_one_hop() {
        let m = Mesh::new(8, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let src = m.node_at(&[3, 3]);
        let d = TrafficPattern::NearestNeighbor.destination(&m, src, &mut rng);
        assert_eq!(m.distance(src, d), 1);
    }
}
