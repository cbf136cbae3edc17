//! Plaintext k-nearest-neighbor baseline.
//!
//! Used as (a) the ground truth every secure protocol's output is checked
//! against, and (b) the "no cryptography" performance baseline in the
//! benchmark harness.

use crate::{SknnError, Table};

/// Squared Euclidean distance between a record `a` and a query `b`.
///
/// # Errors
/// [`SknnError::QueryDimensionMismatch`] when the vectors have different
/// lengths (`table` is `a`'s, `query` is `b`'s).
pub fn squared_euclidean_distance(a: &[u64], b: &[u64]) -> Result<u128, SknnError> {
    if a.len() != b.len() {
        return Err(SknnError::QueryDimensionMismatch {
            table: a.len(),
            query: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x.abs_diff(y) as u128;
            d * d
        })
        .sum())
}

/// Returns the indices of the `k` records of `table` closest to `query` in
/// squared Euclidean distance, ties broken by record index (the same
/// tie-breaking rule the basic protocol's key holder uses).
///
/// # Errors
/// [`SknnError::QueryDimensionMismatch`] when `query` is not as wide as the
/// table's records.
pub fn plain_knn(table: &Table, query: &[u64], k: usize) -> Result<Vec<usize>, SknnError> {
    let mut scored = table
        .records()
        .iter()
        .enumerate()
        .map(|(i, r)| Ok((squared_euclidean_distance(r, query)?, i)))
        .collect::<Result<Vec<(u128, usize)>, SknnError>>()?;
    scored.sort();
    Ok(scored.into_iter().take(k).map(|(_, i)| i).collect())
}

/// Like [`plain_knn`] but returns the records themselves.
///
/// # Errors
/// See [`plain_knn`].
pub fn plain_knn_records(
    table: &Table,
    query: &[u64],
    k: usize,
) -> Result<Vec<Vec<u64>>, SknnError> {
    Ok(plain_knn(table, query, k)?
        .into_iter()
        .map(|i| table.record(i).to_vec())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heart_disease_table() -> Table {
        // Table 1 of the paper (without the record-id column).
        Table::new(vec![
            vec![63, 1, 1, 145, 233, 1, 3, 0, 6, 0],
            vec![56, 1, 3, 130, 256, 1, 2, 1, 6, 2],
            vec![57, 0, 3, 140, 241, 0, 2, 0, 7, 1],
            vec![59, 1, 4, 144, 200, 1, 2, 2, 6, 3],
            vec![55, 0, 4, 128, 205, 0, 2, 1, 7, 3],
            vec![77, 1, 4, 125, 304, 0, 1, 3, 3, 4],
        ])
        .unwrap()
    }

    #[test]
    fn distance_basics() {
        assert_eq!(squared_euclidean_distance(&[0, 0], &[3, 4]).unwrap(), 25);
        assert_eq!(squared_euclidean_distance(&[7, 7], &[7, 7]).unwrap(), 0);
        // Order does not matter.
        assert_eq!(
            squared_euclidean_distance(&[1, 200], &[100, 2]).unwrap(),
            squared_euclidean_distance(&[100, 2], &[1, 200]).unwrap()
        );
    }

    #[test]
    fn mismatched_dimensions_are_a_typed_error() {
        assert_eq!(
            squared_euclidean_distance(&[1], &[1, 2]),
            Err(SknnError::QueryDimensionMismatch { table: 1, query: 2 })
        );
        assert_eq!(
            plain_knn_records(&heart_disease_table(), &[1, 2], 1),
            Err(SknnError::QueryDimensionMismatch {
                table: 10,
                query: 2
            })
        );
    }

    #[test]
    fn paper_example_1_two_nearest_neighbors() {
        // Example 1: for Q = ⟨58, 1, 4, 133, 196, 1, 2, 1, 6⟩ (plus the num
        // attribute treated as unknown → the paper works on the first 9
        // attributes plus a padding), the two nearest records are t4 and t5.
        // We reproduce it on all 10 attributes with num = 0 for the query,
        // which preserves the result set reported in the paper (t5 is in fact
        // slightly closer than t4: 127 vs 148).
        let table = heart_disease_table();
        let query = [58, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let knn = plain_knn(&table, &query, 2).unwrap();
        assert_eq!(knn, vec![4, 3], "t4 and t5 are the two nearest neighbors");
    }

    #[test]
    fn example_3_distance_value() {
        // |t1 − t2|² = 813 as computed in Example 3.
        let table = heart_disease_table();
        assert_eq!(
            squared_euclidean_distance(table.record(0), table.record(1)).unwrap(),
            813
        );
    }

    #[test]
    fn k_equal_n_returns_everything() {
        let table = heart_disease_table();
        let query = [58, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let all = plain_knn(&table, &query, 6).unwrap();
        assert_eq!(all.len(), 6);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_by_index() {
        // Distances are 9, 1, 9, 1: the two ties are ordered by record index.
        let table = Table::new(vec![vec![5], vec![1], vec![5], vec![1]]).unwrap();
        assert_eq!(plain_knn(&table, &[2], 4).unwrap(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn records_variant_returns_rows() {
        let table = heart_disease_table();
        let query = [58, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let recs = plain_knn_records(&table, &query, 1).unwrap();
        assert_eq!(recs, vec![table.record(4).to_vec()]);
    }
}
