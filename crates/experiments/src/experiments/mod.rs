//! The experiment suite, one module per table/figure of the paper.

pub mod ablation;
pub mod barbell_fig;
pub mod brr_fig;
pub mod dynamic_fig;
pub mod progress_fig;
pub mod queue_fig;
pub mod scaling_fig;
pub mod stopping_time;
pub mod table1;
pub mod table2;
