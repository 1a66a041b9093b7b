//! # ca-pla — distributed building blocks on the virtual BSP machine
//!
//! Implements §III of Solomonik et al. (SPAA'17) — the parallel building
//! blocks the communication-avoiding symmetric eigensolver is composed
//! of — executing on the `ca-bsp` virtual machine with every word of
//! data motion and every flop charged to the ledger:
//!
//! * processor grids and groups ([`grid`]),
//! * BSP collectives with exact word/superstep charging ([`coll`]),
//! * distributed matrices with per-processor physical storage ([`dist`]),
//! * cost-charged local kernel wrappers ([`kern`]),
//! * SUMMA 2D matrix multiplication ([`summa`]),
//! * Streaming-MM, Algorithm III.1 / Lemma III.3 ([`streaming`]),
//! * recursive rectangular matmul, Lemma III.2 / CARMA ([`carma`]),
//! * TSQR binary-tree QR ([`tsqr`]),
//! * Householder reconstruction, Corollary III.7 ([`reconstruct`]),
//! * 2D blocked CAQR for (nearly) square matrices ([`square_qr`]),
//! * rect-QR, Algorithm III.2 / Theorem III.6 ([`rect_qr`]),
//! * distributed non-pivoted LU and triangular solves ([`lu`]),
//! * the parallel superstep executor ([`exec`]) — runs independent
//!   per-virtual-processor work on real threads between fences.
//!
//! ## Layout policy
//!
//! All 2D algorithms use *block* distributions with panel width equal to
//! the block size (one block per processor per dimension). For the
//! per-superstep-maximum cost accounting of the paper's model this is
//! load-balance-equivalent to the block-cyclic layouts the paper assumes
//! (DESIGN.md §8): redistribution between stages is explicit and charged.

// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod alpha_beta;
pub mod carma;
pub mod coll;
pub mod cyclic;
pub mod dist;
pub mod exec;
pub mod grid;
pub mod kern;
pub mod lu;
pub mod ops;
pub mod reconstruct;
pub mod rect_qr;
pub mod square_qr;
pub mod streaming;
pub mod summa;
pub mod tsqr;

pub use dist::DistMatrix;
pub use grid::Grid;
