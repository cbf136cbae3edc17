//! The paper's single-table deployment, shared by the integration tests:
//! an engine with one outsourced table registered under [`DATASET`], queried
//! through the engine's builder.
//!
//! Each test file compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use sknn::{
    DataOwner, DatasetOptions, FederationConfig, Protocol, QueryOutcome, SknnEngine, SknnError,
    Table,
};

/// The name the one outsourced table is registered under.
pub const DATASET: &str = "table";

/// A one-dataset engine over `table` under a fresh key pair, admitting
/// query values up to `max_query_value`.
pub fn setup(
    table: &Table,
    config: FederationConfig,
    max_query_value: u64,
    rng: &mut StdRng,
) -> Result<SknnEngine, SknnError> {
    let engine = SknnEngine::setup(config, rng)?;
    register(engine, table, max_query_value, rng)
}

/// A one-dataset engine over `table` under `owner`'s key pair, admitting
/// query values up to `max_query_value`.
pub fn setup_with_owner(
    owner: DataOwner,
    table: &Table,
    config: FederationConfig,
    max_query_value: u64,
    rng: &mut StdRng,
) -> Result<SknnEngine, SknnError> {
    let engine = SknnEngine::setup_with_owner(owner, config)?;
    register(engine, table, max_query_value, rng)
}

fn register(
    mut engine: SknnEngine,
    table: &Table,
    max_query_value: u64,
    rng: &mut StdRng,
) -> Result<SknnEngine, SknnError> {
    let options = DatasetOptions {
        max_query_value,
        ..Default::default()
    };
    engine.register_dataset_with(DATASET, table, options, rng)?;
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
