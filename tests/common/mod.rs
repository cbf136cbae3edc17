//! The paper's single-table deployment, shared by the integration tests:
//! an engine with one outsourced table registered under [`DATASET`], queried
//! through the engine's builder.
//!
//! Each test file compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use sknn::{DataOwner, FederationConfig, Protocol, QueryOutcome, SknnEngine, SknnError, Table};

/// The name the one outsourced table is registered under.
pub const DATASET: &str = "table";

/// A one-dataset engine over `table` under a fresh key pair.
pub fn setup(
    table: &Table,
    config: FederationConfig,
    rng: &mut StdRng,
) -> Result<SknnEngine, SknnError> {
    let mut engine = SknnEngine::setup(config, rng)?;
    engine.register_dataset(DATASET, table, rng)?;
    Ok(engine)
}

/// A one-dataset engine over `table` under `owner`'s key pair.
pub fn setup_with_owner(
    owner: DataOwner,
    table: &Table,
    config: FederationConfig,
    rng: &mut StdRng,
) -> Result<SknnEngine, SknnError> {
    let mut engine = SknnEngine::setup_with_owner(owner, config)?;
    engine.register_dataset(DATASET, table, rng)?;
    Ok(engine)
}

/// Runs one kNN query for `query` against [`DATASET`].
pub fn run(
    engine: &SknnEngine,
    protocol: Protocol,
    query: &[u64],
    k: usize,
    rng: &mut StdRng,
) -> Result<QueryOutcome, SknnError> {
    engine
        .query(DATASET)
        .k(k)
        .point(query)
        .protocol(protocol)
        .run(rng)
}
