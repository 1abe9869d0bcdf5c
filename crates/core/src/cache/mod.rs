//! The proxy cache: result store, replacement, and cache descriptions.

mod description;
mod entry;
mod persist;
mod profit;
mod replace;
mod store;
mod tier;

pub use description::{ArrayDescription, CacheDescription, DescriptionKind, RTreeDescription};
pub(crate) use entry::prebuild;
pub use entry::CacheEntry;
pub(crate) use persist::{entry_from_xml, entry_to_xml};
pub use persist::{region_from_xml, region_to_xml};
pub use profit::{ProfitEstimate, ProfitModel, ProfitParams};
pub use replace::Replacement;
pub use store::{CacheStats, CacheStore, ClassifyView};
pub use tier::{
    encode_payload, DemotedEntry, EvictionManager, IoFault, IoOp, SegRef, SlabFile, SlabIo,
    SlabSlice, TierConfig, SLAB_MAGIC, SLAB_VERSION,
};
