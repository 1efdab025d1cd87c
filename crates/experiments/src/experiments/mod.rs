//! One module per experiment family; the mapping to paper results lives in
//! [`crate::registry`] (README.md, § Experiments).

pub mod comparison;
pub mod convergence;
pub mod duality;
pub mod dynamic;
pub mod higher_moments;
pub mod martingale;
pub mod potential;
pub mod stationary;
pub mod variance;

pub(crate) mod common;
