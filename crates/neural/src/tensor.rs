//! Dense row-major tensors of `f32` used throughout the training substrate.
//!
//! The tensor type is intentionally small: the federated workload of the
//! paper is LeNet-5 on CIFAR-sized images, so a plain `Vec<f32>` buffer with
//! shape metadata and nested-loop kernels is sufficient and keeps the code
//! auditable. All operations validate shapes eagerly and return
//! [`TensorError`] instead of panicking.

use std::fmt;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The provided buffer length does not match the product of the shape.
    LengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements provided.
        actual: usize,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match shape product {expected}"
                )
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => {
                write!(f, "{op} expects rank {expected}, got rank {actual}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use fedco_neural::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// assert_eq!(a.map(|v| v * 2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
/// assert!(Tensor::from_vec(vec![1.0], &[2, 2]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the buffer length does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Scales the tensor in place.
    pub fn scale_in_place(&mut self, factor: f32) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }
}

/// Conveniences the tests of this crate share.
#[cfg(test)]
impl Tensor {
    pub(crate) fn ones(shape: &[usize]) -> Self {
        Tensor::zeros(shape).map(|_| 1.0)
    }

    pub(crate) fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    pub(crate) fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!((z.len(), z.rank()), (6, 2));
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a.map(|v| v - 1.0).data(), &[0.0, 1.0, 2.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn errors_display_their_operation() {
        let e = TensorError::RankMismatch {
            expected: 2,
            actual: 1,
            op: "evaluate",
        };
        assert_eq!(e.to_string(), "evaluate expects rank 2, got rank 1");
    }
}
