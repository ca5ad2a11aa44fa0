//! One module per reproduced figure/table.

pub mod ablation;
pub mod abuse;
mod cell;
pub mod chaos;
pub mod churn;
pub mod common;
pub mod dse;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig20;
pub mod fig4;
pub mod fig5;
pub mod ops;
pub mod tables;
pub mod tokens_demo;
