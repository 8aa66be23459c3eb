//! HPF-style alignment of a collection onto a distribution template.
//!
//! The paper's example uses `Align a(12, "[ALIGN(dummy[i], d[i])]")` — the
//! identity alignment. In general HPF permits affine alignments
//! `template[stride * i + offset]`; we support exactly that family.

use crate::error::CollectionError;

/// An affine map from collection index to template cell:
/// `t = stride * i + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alignment {
    /// Multiplier (must be ≥ 1).
    pub stride: usize,
    /// Additive offset.
    pub offset: usize,
}

impl Alignment {
    /// The identity alignment `ALIGN(dummy[i], d[i])`.
    pub fn identity() -> Self {
        Alignment {
            stride: 1,
            offset: 0,
        }
    }

    /// An affine alignment `ALIGN(dummy[i], d[stride*i + offset])`.
    pub fn affine(stride: usize, offset: usize) -> Result<Self, CollectionError> {
        if stride == 0 {
            return Err(CollectionError::BadDistribution(
                "alignment stride must be at least 1".into(),
            ));
        }
        Ok(Alignment { stride, offset })
    }

    /// Template cell for collection element `i`.
    pub fn template_cell(&self, i: usize) -> usize {
        self.stride * i + self.offset
    }

    /// Collection element mapping to template cell `t`, if any.
    pub fn element_for_cell(&self, t: usize) -> Option<usize> {
        if t < self.offset {
            return None;
        }
        let d = t - self.offset;
        d.is_multiple_of(self.stride).then_some(d / self.stride)
    }

    /// Highest template cell touched by a collection of `n` elements
    /// (`None` for an empty collection); an error past `usize::MAX`.
    pub fn max_cell(&self, n: usize) -> Result<Option<usize>, CollectionError> {
        let cell = |last| self.stride.checked_mul(last)?.checked_add(self.offset);
        n.checked_sub(1)
            .map(|last| {
                cell(last).ok_or_else(|| {
                    CollectionError::BadDistribution(format!(
                        "alignment {}*i + {} overflows for {n} elements",
                        self.stride, self.offset
                    ))
                })
            })
            .transpose()
    }
}

impl Default for Alignment {
    fn default() -> Self {
        Alignment::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_straight_through() {
        let a = Alignment::identity();
        assert_eq!(a.template_cell(7), 7);
        assert_eq!(a.element_for_cell(7), Some(7));
    }

    #[test]
    fn affine_roundtrips() {
        let a = Alignment::affine(3, 2).unwrap();
        for i in 0..20 {
            let t = a.template_cell(i);
            assert_eq!(t, 3 * i + 2);
            assert_eq!(a.element_for_cell(t), Some(i));
        }
        // Cells between strides, or before the offset, have no element.
        assert_eq!(a.element_for_cell(0), None);
        assert_eq!(a.element_for_cell(3), None);
        assert_eq!(a.element_for_cell(4), None);
        assert_eq!(a.element_for_cell(2), Some(0));
    }

    #[test]
    fn zero_stride_is_rejected() {
        assert!(Alignment::affine(0, 1).is_err());
    }

    #[test]
    fn max_cell_bounds_template_usage() {
        let a = Alignment::affine(2, 1).unwrap();
        assert_eq!(a.max_cell(0), Ok(None));
        assert_eq!(a.max_cell(5), Ok(Some(9)));
        assert!(Alignment::affine(1, usize::MAX - 1)
            .unwrap()
            .max_cell(3)
            .is_err());
        assert!(Alignment::affine(1 << 63, 0).unwrap().max_cell(3).is_err());
    }
}
