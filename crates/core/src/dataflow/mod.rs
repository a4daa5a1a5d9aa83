//! PIER's dataflow layer: the local relational operators the engine runs
//! for every plan.  The algebraic interface is
//! [`PierNode::submit`](crate::engine::PierNode::submit), which takes a
//! [`QueryKind`](crate::query::QueryKind) directly.

pub mod join;
pub mod ops;

pub use ops::{
    compare_on, sort_tuples, Distinct, FilterOp, GroupAggregator, GroupKey, Limit, ProjectOp, TopK,
};
