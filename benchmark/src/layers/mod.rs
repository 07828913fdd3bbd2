//! One file per layer (= crate). These files are the only places that call
//! into the stack, and they call only the public functions each header
//! lists: that list is the API later PRs keep stable or adapt behind.

pub mod bitpack;
pub mod codecs;
pub mod columnar;
pub mod core;
pub mod ingest;
pub mod kvstore;
pub mod obs;
pub mod scan;
pub mod server;
