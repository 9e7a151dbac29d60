//! The key column as RX's scene.
//!
//! RX turns key `i` into primitive `i` of a scene and builds a BVH over it.
//! [`KeyScene`] is that scene without a vertex buffer: the builder asks it
//! for primitive `i`'s bounds and centroid, and it computes them from
//! `keys[i]` with the constructors a materialized [`BuildInput`] is made
//! with — [`Triangle::key_triangle_anisotropic`] (which
//! [`Triangle::key_triangle`] is at the Naive and 3D modes' equal extents),
//! a sphere of [`Sphere::KEY_RADIUS`], or a key box — so they are exactly
//! those of the primitive that gets stored. The one primitive buffer is
//! written once, in leaf-slot order, by [`BuildSource::gather_input`].

use std::borrow::Cow;
use std::ops::Range;

use optix_sim::{BuildInput, BuildSource, PrimitiveKind};
use rtx_bvh::primitives::{fill_slots, PrimitiveHit};
use rtx_bvh::{prefetch, AabbSet, PrimitiveSet, SphereSet, TriangleSet};
use rtx_math::{Aabb, Ray, Sphere, Triangle, Vec3f};

use crate::key_mode::KeyMode;

/// A key column seen as a scene of `kind` primitives under key mode `mode`:
/// primitive `i` is key `keys[i]`'s, so its position is the rowID.
///
/// [`RtIndex::build`](crate::RtIndex::build) checks that the mode supports
/// the kind and every key before it builds from a scene.
#[derive(Debug, Clone)]
pub(crate) struct KeyScene<'a> {
    keys: Cow<'a, [u64]>,
    mode: KeyMode,
    kind: PrimitiveKind,
}

impl<'a> KeyScene<'a> {
    /// The scene of `keys` under `mode`, one `kind` primitive per key.
    pub(crate) fn new(keys: &'a [u64], mode: KeyMode, kind: PrimitiveKind) -> Self {
        KeyScene {
            keys: Cow::Borrowed(keys),
            mode,
            kind,
        }
    }

    fn center(&self, i: usize) -> Vec3f {
        self.mode.center(self.keys[i])
    }

    fn triangle(&self, i: usize) -> Triangle {
        let key = self.keys[i];
        Triangle::key_triangle_anisotropic(self.mode.center(key), self.mode.half_extents(key))
    }

    fn sphere(&self, i: usize) -> Sphere {
        Sphere::new(self.center(i), Sphere::KEY_RADIUS)
    }

    fn key_box(&self, i: usize) -> Aabb {
        let key = self.keys[i];
        let (center, half) = (self.mode.center(key), self.mode.half_extents(key));
        Aabb::new(center - half, center + half)
    }
}

impl PrimitiveSet for KeyScene<'_> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn bounds(&self, i: usize) -> Aabb {
        match self.kind {
            PrimitiveKind::Triangle => self.triangle(i).bounds(),
            PrimitiveKind::Sphere => self.sphere(i).bounds(),
            PrimitiveKind::Aabb => self.key_box(i),
        }
    }

    fn centroid(&self, i: usize) -> Vec3f {
        match self.kind {
            PrimitiveKind::Triangle => self.triangle(i).centroid(),
            PrimitiveKind::Sphere => self.center(i),
            PrimitiveKind::Aabb => self.key_box(i).centroid(),
        }
    }

    fn intersect(&self, i: usize, ray: &Ray) -> PrimitiveHit {
        match self.kind {
            PrimitiveKind::Triangle => match self.triangle(i).intersect(ray) {
                Some(hit) => PrimitiveHit::HardwareHit(hit.t),
                None => PrimitiveHit::Miss,
            },
            PrimitiveKind::Sphere => match self.sphere(i).intersect(ray) {
                Some(hit) => PrimitiveHit::SoftwareHit(hit.t),
                None => PrimitiveHit::Miss,
            },
            PrimitiveKind::Aabb => match self.key_box(i).intersect(ray) {
                Some((t_enter, _)) => PrimitiveHit::SoftwareHit(t_enter),
                None => PrimitiveHit::Miss,
            },
        }
    }

    fn prefetch(&self, slots: Range<usize>) {
        prefetch(&self.keys[slots]);
    }

    fn bytes_per_primitive(&self) -> u64 {
        self.kind.bytes_per_primitive()
    }

    fn hardware_intersection(&self) -> bool {
        self.kind == PrimitiveKind::Triangle
    }

    fn gather(&self, order: &[u32]) -> Self {
        KeyScene {
            keys: order.iter().map(|&i| self.keys[i as usize]).collect(),
            mode: self.mode,
            kind: self.kind,
        }
    }
}

impl BuildSource for KeyScene<'_> {
    fn kind(&self) -> PrimitiveKind {
        self.kind
    }

    fn primitives(&self) -> &dyn PrimitiveSet {
        self
    }

    fn gather_input(&self, order: &[u32]) -> BuildInput {
        match self.kind {
            PrimitiveKind::Triangle => {
                BuildInput::Triangles(TriangleSet::new(fill_slots(order, |i| self.triangle(i))))
            }
            PrimitiveKind::Sphere => BuildInput::Spheres(SphereSet::new(
                fill_slots(order, |i| self.center(i)),
                Sphere::KEY_RADIUS,
            )),
            PrimitiveKind::Aabb => {
                BuildInput::Aabbs(AabbSet::new(fill_slots(order, |i| self.key_box(i))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [u64; 6] = [26, 25, 29, 23, 29, 27];

    /// Every primitive the scene reports — bounds, centroid, a hit — is
    /// the one its gathered buffer stores at that primitive's slot.
    #[test]
    fn scene_primitives_are_the_stored_ones() {
        let order: Vec<u32> = vec![3, 1, 0, 5, 2, 4];
        for mode in KeyMode::all() {
            for kind in PrimitiveKind::all() {
                if !mode.supports_primitive(kind) {
                    continue;
                }
                let scene = KeyScene::new(&KEYS, mode, kind);
                let stored = scene.gather_input(&order);
                let gathered = scene.gather(&order);
                assert_eq!(stored.kind(), kind);
                assert_eq!(
                    stored.primitive_buffer_bytes(),
                    6 * kind.bytes_per_primitive()
                );
                assert_eq!(
                    scene.hardware_intersection(),
                    stored.as_primitive_set().hardware_intersection()
                );
                for (slot, &i) in order.iter().enumerate() {
                    let i = i as usize;
                    let set = stored.as_primitive_set();
                    assert_eq!(scene.bounds(i), set.bounds(slot), "{mode:?} {kind:?}");
                    assert_eq!(scene.centroid(i), set.centroid(slot), "{mode:?} {kind:?}");
                    assert_eq!(gathered.bounds(slot), set.bounds(slot));
                    let c = scene.centroid(i);
                    let ray = Ray::new(
                        c - Vec3f::new(0.0, 0.0, 0.5),
                        Vec3f::new(0.0, 0.0, 1.0),
                        0.0,
                        1.0,
                    );
                    assert_eq!(scene.intersect(i, &ray), set.intersect(slot, &ray));
                    assert!(scene.intersect(i, &ray).t().is_some());
                }
            }
        }
    }
}
