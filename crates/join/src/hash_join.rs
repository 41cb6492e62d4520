//! The in-memory hash join sub-routine.
//!
//! Both QES implementations join a pair of in-memory record sets by
//! building a hash table on the left (inner) side and probing it with the
//! right (outer) side. The build stores *row indices* (the paper stores "a
//! pointer to the relevant record"), so build cost is independent of record
//! size — which is why the cost models can use flat `α_build`/`α_lookup`
//! constants. Neither build nor probe materializes row objects: keys are
//! gathered straight from the columnar sub-tables, and output records are
//! only assembled for actual matches.
//!
//! The table is a flat bucket chain: every build row's key words sit
//! row-major in one `Vec<u64>`, a power-of-two `heads` array holds each
//! bucket's first row, and `next` links a bucket's rows. Building
//! allocates three vectors, however many distinct keys there are.
//!
//! [`JoinCounters`] tallies every insert and lookup; the threaded runtime
//! aggregates these across nodes and the calibration harness divides wall
//! time by them to measure `α` on the host.

use orv_chunk::SubTable;
use orv_types::{DataType, Error, Record, Result, Value};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key-family flag: floats and ints hash into disjoint key spaces.
///
/// [`Value`] equality is family-first — `I32(7) == I64(7)` but no int
/// ever equals a float — and `Value::key_bits` is only canonical
/// *within* a family. A column's family is constant (it is determined
/// by the schema's [`DataType`]), so the join can key its hash table on
/// raw `u64` key bits and compare the per-column family vectors once
/// per probe instead of tagging every value.
#[inline]
fn is_float(ty: DataType) -> bool {
    matches!(ty, DataType::F32 | DataType::F64)
}

/// The canonical key bits of `cols`, row-major: row `r`'s key is
/// `keys[r * cols.len()..(r + 1) * cols.len()]`.
fn gather_keys(st: &SubTable, cols: &[usize]) -> Vec<u64> {
    let cols: Vec<&[Value]> = cols.iter().map(|&c| st.column(c)).collect();
    let mut keys = Vec::with_capacity(st.num_rows() * cols.len());
    for r in 0..st.num_rows() {
        keys.extend(cols.iter().map(|c| c[r].key_bits()));
    }
    keys
}

/// A side's row count as a `u32` row index bound, or a typed error when
/// the side is too large for one (`NIL` is reserved).
fn row_bound(rows: usize, side: &str) -> Result<u32> {
    u32::try_from(rows)
        .ok()
        .filter(|&n| n != NIL)
        .ok_or_else(|| {
            Error::Plan(format!(
                "hash-join {side} side has {rows} rows; the limit is {NIL}"
            ))
        })
}

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// 2^64 / φ: the multiplier of Fibonacci hashing.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hash of one key's words. Each word is folded in with a
/// rotate, xor and multiply; a bucket is the hash's top bits, which the
/// multiply mixes from every bit below them. It is unkeyed: keys crafted
/// to collide only lengthen chains (slower, never wrong), and join keys
/// are the dataset's own attribute values, not client input.
#[inline]
fn hash_key(key: &[u64]) -> u64 {
    key.iter()
        .fold(0u64, |h, &w| (h.rotate_left(26) ^ w).wrapping_mul(HASH_MUL))
}

/// The flat bucket-chain table over one build side.
struct FlatTable {
    /// Key words per row (the number of key attributes).
    width: usize,
    /// Every build row's key words, row-major.
    keys: Vec<u64>,
    /// Per bucket, its first build row or [`NIL`]. The length is a power
    /// of two of at least twice the build rows.
    heads: Vec<u32>,
    /// Per build row, the next row of its bucket or [`NIL`]. Rows are
    /// inserted in reverse, so every chain runs in ascending row order.
    next: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash shifted right by this is a bucket.
    shift: u32,
    /// Distinct keys inserted.
    distinct: usize,
}

impl FlatTable {
    /// Chain `rows` build rows whose keys are `keys` (row-major, `width`
    /// words each).
    fn build(keys: Vec<u64>, width: usize, rows: u32) -> Result<Self> {
        let buckets = (rows as usize)
            .checked_mul(2)
            .and_then(usize::checked_next_power_of_two)
            .ok_or_else(|| Error::Plan(format!("hash-join table for {rows} rows overflows")))?
            .max(2);
        let mut table = FlatTable {
            width,
            keys,
            heads: vec![NIL; buckets],
            next: vec![NIL; rows as usize],
            shift: 64 - buckets.trailing_zeros(),
            distinct: 0,
        };
        for row in (0..rows).rev() {
            let key = table.key(row);
            let bucket = table.bucket(key);
            let is_new = table.find(table.heads[bucket], key) == NIL;
            table.distinct += usize::from(is_new);
            table.next[row as usize] = table.heads[bucket];
            table.heads[bucket] = row;
        }
        Ok(table)
    }

    /// Build row `row`'s key words.
    #[inline]
    fn key(&self, row: u32) -> &[u64] {
        let start = row as usize * self.width;
        &self.keys[start..start + self.width]
    }

    #[inline]
    fn bucket(&self, key: &[u64]) -> usize {
        (hash_key(key) >> self.shift) as usize
    }

    /// The first row whose key is `key`, walking a chain from `row` on;
    /// [`NIL`] when there is none.
    #[inline]
    fn find(&self, mut row: u32, key: &[u64]) -> u32 {
        while row != NIL && self.key(row) != key {
            row = self.next[row as usize];
        }
        row
    }

    /// The lowest build row whose key is `key`, or [`NIL`].
    #[inline]
    fn first(&self, key: &[u64]) -> u32 {
        self.find(self.heads[self.bucket(key)], key)
    }

    /// The next build row after `row` with the same key `key`, or [`NIL`].
    #[inline]
    fn after(&self, row: u32, key: &[u64]) -> u32 {
        self.find(self.next[row as usize], key)
    }
}

/// Shared counters for hash-join operations.
#[derive(Clone, Default, Debug)]
pub struct JoinCounters {
    builds: Arc<AtomicU64>,
    probes: Arc<AtomicU64>,
    results: Arc<AtomicU64>,
}

impl JoinCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash-table inserts performed.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Hash-table lookups performed.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Result tuples produced.
    pub fn results(&self) -> u64 {
        self.results.load(Ordering::Relaxed)
    }
}

/// A built hash table over one left-side sub-table.
///
/// IJ caches these per left sub-table ("a hash-table is created only once
/// for every left sub-table"), so the type is cheap to clone and share:
/// the table is `Arc`ed and the sub-table's columns already are.
#[derive(Clone)]
pub struct HashJoiner {
    /// The bucket-chain table over the build rows' canonical key bits.
    /// Keys are compared as raw bits; families are checked once per probe
    /// (see [`is_float`]).
    table: Arc<FlatTable>,
    /// Per-key-position family flags of the build side.
    families: Arc<[bool]>,
    /// The build-side sub-table, pinned behind an `Arc` so cache hits
    /// and clones are refcount bumps — no column vector is ever copied.
    left: Arc<SubTable>,
    /// Work multiplier (Figure 8's repeated-instructions trick): every
    /// build/probe is performed `work_factor` times.
    work_factor: u32,
}

impl HashJoiner {
    /// Build a hash table over `left`'s rows keyed by `key_attrs`.
    ///
    /// Columnar: the key bits are gathered row-major in one pass, then
    /// the insert loop works on plain `u64`s — no per-row or per-key
    /// allocation.
    pub fn build(
        left: Arc<SubTable>,
        key_attrs: &[&str],
        counters: &JoinCounters,
        work_factor: u32,
    ) -> Result<Self> {
        let key_indices: Vec<usize> = key_attrs
            .iter()
            .map(|a| left.schema().require(a))
            .collect::<Result<_>>()?;
        let families: Arc<[bool]> = key_indices
            .iter()
            .map(|&i| is_float(left.schema().attrs()[i].dtype))
            .collect();
        let rows = row_bound(left.num_rows(), "build")?;
        let table = FlatTable::build(gather_keys(&left, &key_indices), key_indices.len(), rows)?;
        let reps = work_factor.max(1);
        for _ in 1..reps {
            // Repeated work: re-hash and walk the chain, discarding the
            // result, exactly like re-running the insert instructions on
            // a slower CPU.
            for row in 0..rows {
                black_box(table.first(table.key(row)));
            }
        }
        counters
            .builds
            .fetch_add(u64::from(rows) * u64::from(reps), Ordering::Relaxed);
        Ok(HashJoiner {
            table: Arc::new(table),
            families,
            left,
            work_factor: reps,
        })
    }

    /// Number of distinct keys in the table.
    pub fn num_keys(&self) -> usize {
        self.table.distinct
    }

    /// Number of build-side rows.
    pub fn num_rows(&self) -> usize {
        self.left.num_rows()
    }

    /// Probe with every row of `right`; for each match, emit
    /// `left_row ⨝ right_row` (right key fields dropped) through `on_match`.
    /// Returns the number of result tuples.
    ///
    /// Matches come in right-row order and, within one right row, in
    /// ascending build-row order. Columnar: right-side key bits are
    /// gathered up front; the match loop compares raw `u64`s. Matches are
    /// collected as `(left_row, right_row)` pairs and rows are
    /// materialized only for actual matches, at the end — the probe loop
    /// itself builds no [`Record`].
    pub fn probe(
        &self,
        right: &SubTable,
        key_attrs: &[&str],
        counters: &JoinCounters,
        mut on_match: impl FnMut(Record),
    ) -> Result<u64> {
        let right_keys: Vec<usize> = key_attrs
            .iter()
            .map(|a| right.schema().require(a))
            .collect::<Result<_>>()?;
        let rows = row_bound(right.num_rows(), "probe")?;
        // Family mismatch on any key position (int column joined against
        // float column) means no right key can equal any build key —
        // `Value` equality never crosses families. Raw key bits could
        // collide across families, so skip lookups entirely; the op
        // counters still tick exactly as the row path did.
        let families_match = right_keys.len() == self.families.len()
            && right_keys
                .iter()
                .zip(self.families.iter())
                .all(|(&i, &fam)| is_float(right.schema().attrs()[i].dtype) == fam);
        let mut produced = 0u64;
        if families_match {
            let table = &*self.table;
            let width = table.width;
            let keys = gather_keys(right, &right_keys);
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for rep in 0..self.work_factor {
                for ri in 0..rows {
                    let start = ri as usize * width;
                    let key = &keys[start..start + width];
                    let mut li = table.first(key);
                    if rep > 0 {
                        black_box(li);
                        continue;
                    }
                    while li != NIL {
                        pairs.push((li, ri));
                        li = table.after(li, key);
                    }
                }
            }
            produced = pairs.len() as u64;
            // Materialize the matches: left row ++ right row minus its
            // key fields. This is the row edge of the join.
            let left_arity = self.left.schema().arity();
            let right_cols: Vec<usize> = (0..right.schema().arity())
                .filter(|c| !right_keys.contains(c))
                .collect();
            for (li, ri) in pairs {
                let mut vals = Vec::with_capacity(left_arity + right_cols.len());
                for c in 0..left_arity {
                    vals.push(self.left.value(li as usize, c));
                }
                for &c in &right_cols {
                    vals.push(right.value(ri as usize, c));
                }
                on_match(Record::new(vals));
            }
        }
        counters.probes.fetch_add(
            u64::from(rows) * u64::from(self.work_factor),
            Ordering::Relaxed,
        );
        counters.results.fetch_add(produced, Ordering::Relaxed);
        Ok(produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::{Schema, SubTableId, Value};
    use std::sync::Arc as StdArc;

    fn left() -> SubTable {
        let schema = StdArc::new(Schema::grid(&["x", "y"], &["oilp"]).unwrap());
        let cols = vec![
            vec![Value::I32(0), Value::I32(1), Value::I32(1)],
            vec![Value::I32(0), Value::I32(0), Value::I32(1)],
            vec![Value::F32(0.1), Value::F32(0.2), Value::F32(0.3)],
        ];
        SubTable::from_columns(SubTableId::new(0u32, 0u32), schema, cols).unwrap()
    }

    fn right() -> SubTable {
        let schema = StdArc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
        let cols = vec![
            vec![Value::I32(1), Value::I32(0), Value::I32(2)],
            vec![Value::I32(0), Value::I32(0), Value::I32(2)],
            vec![Value::F32(0.5), Value::F32(0.6), Value::F32(0.7)],
        ];
        SubTable::from_columns(SubTableId::new(1u32, 0u32), schema, cols).unwrap()
    }

    #[test]
    fn joins_matching_keys() {
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["x", "y"], &counters, 1).unwrap();
        assert_eq!(hj.num_rows(), 3);
        assert_eq!(hj.num_keys(), 3);
        let mut out = Vec::new();
        let n = hj
            .probe(&right(), &["x", "y"], &counters, |r| out.push(r))
            .unwrap();
        assert_eq!(n, 2);
        // (1,0) matches and (0,0) matches; (2,2) does not.
        out.sort_by_key(|r| (r.values()[0], r.values()[1]));
        assert_eq!(
            out[0].values(),
            &[
                Value::I32(0),
                Value::I32(0),
                Value::F32(0.1),
                Value::F32(0.6)
            ]
        );
        assert_eq!(
            out[1].values(),
            &[
                Value::I32(1),
                Value::I32(0),
                Value::F32(0.2),
                Value::F32(0.5)
            ]
        );
        assert_eq!(counters.builds(), 3);
        assert_eq!(counters.probes(), 3);
        assert_eq!(counters.results(), 2);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let schema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let cols = vec![
            vec![Value::I32(5), Value::I32(5)],
            vec![Value::F32(1.0), Value::F32(2.0)],
        ];
        let l = SubTable::from_columns(SubTableId::new(0u32, 0u32), schema.clone(), cols).unwrap();
        let r_cols = vec![vec![Value::I32(5)], vec![Value::F32(9.0)]];
        let r = SubTable::from_columns(SubTableId::new(1u32, 0u32), schema, r_cols).unwrap();
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(l), &["x"], &counters, 1).unwrap();
        assert_eq!(hj.num_keys(), 1);
        let n = hj.probe(&r, &["x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn work_factor_multiplies_op_counts_not_results() {
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["x", "y"], &counters, 3).unwrap();
        let n = hj.probe(&right(), &["x", "y"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2, "results unchanged by work factor");
        assert_eq!(counters.builds(), 9);
        assert_eq!(counters.probes(), 9);
        assert_eq!(counters.results(), 2);
    }

    #[test]
    fn missing_key_attr_errors() {
        let counters = JoinCounters::new();
        assert!(HashJoiner::build(StdArc::new(left()), &["zzz"], &counters, 1).is_err());
        let hj = HashJoiner::build(StdArc::new(left()), &["x"], &counters, 1).unwrap();
        assert!(hj.probe(&right(), &["zzz"], &counters, |_| {}).is_err());
    }

    #[test]
    fn empty_sides_produce_nothing() {
        let counters = JoinCounters::new();
        let schema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let empty = StdArc::new(SubTable::empty(SubTableId::new(0u32, 0u32), schema));
        let hj = HashJoiner::build(StdArc::clone(&empty), &["x"], &counters, 1).unwrap();
        let n = hj.probe(&empty, &["x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 0);
        assert_eq!(counters.builds(), 0);
    }

    #[test]
    fn family_mismatch_matches_nothing_but_counts_probes() {
        // Build keyed on an int column, probe keyed on a float column
        // whose key bits collide with the int's: `Value` equality never
        // crosses families, so the join must produce nothing.
        let counters = JoinCounters::new();
        let lschema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let l_cols = vec![vec![Value::I32(1)], vec![Value::F32(0.5)]];
        let l = SubTable::from_columns(SubTableId::new(0u32, 0u32), lschema, l_cols).unwrap();
        let rschema = StdArc::new(
            Schema::new(vec![orv_types::Attribute::scalar(
                "x",
                orv_types::DataType::F64,
            )])
            .unwrap(),
        );
        let bits_one = f64::from_bits(Value::I32(1).key_bits());
        let r_cols = vec![vec![Value::F64(bits_one)]];
        let r = SubTable::from_columns(SubTableId::new(1u32, 0u32), rschema, r_cols).unwrap();
        let hj = HashJoiner::build(StdArc::new(l), &["x"], &counters, 1).unwrap();
        let n = hj
            .probe(&r, &["x"], &counters, |_| panic!("no match expected"))
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(counters.probes(), 1, "probe work still counted");
        assert_eq!(counters.results(), 0);
    }

    #[test]
    fn cloned_joiner_shares_build_side() {
        let counters = JoinCounters::new();
        let l = StdArc::new(left());
        let hj = HashJoiner::build(StdArc::clone(&l), &["x", "y"], &counters, 1).unwrap();
        let hj2 = hj.clone();
        assert!(
            StdArc::ptr_eq(&hj.left, &hj2.left),
            "clone is a refcount bump"
        );
        assert!(
            StdArc::ptr_eq(&hj2.left, &l),
            "build side pinned, not copied"
        );
    }

    /// SplitMix64, so every random sub-table is a pure function of a seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A sub-table `(k0, k1, row)` whose last column is each row's index,
    /// so a join's output names the `(left, right)` pair it came from.
    fn indexed_side(id: u32, dtypes: [DataType; 2], keys: &[[Value; 2]]) -> SubTable {
        let schema = StdArc::new(
            Schema::new(vec![
                orv_types::Attribute::scalar("k0", dtypes[0]),
                orv_types::Attribute::scalar("k1", dtypes[1]),
                orv_types::Attribute::scalar("row", DataType::I64),
            ])
            .unwrap(),
        );
        let cols = vec![
            keys.iter().map(|k| k[0]).collect(),
            keys.iter().map(|k| k[1]).collect(),
            (0..keys.len() as i64).map(Value::I64).collect(),
        ];
        SubTable::from_columns(SubTableId::new(id, 0u32), schema, cols).unwrap()
    }

    /// The nested-loop reference: every `(left, right)` pair with equal
    /// keys under `Value` equality, in right-row order and, within a
    /// right row, ascending left row.
    fn nested_loop_pairs(left: &[[Value; 2]], right: &[[Value; 2]]) -> Vec<(i64, i64)> {
        let mut pairs = Vec::new();
        for (ri, rk) in right.iter().enumerate() {
            for (li, lk) in left.iter().enumerate() {
                if lk == rk {
                    pairs.push((li as i64, ri as i64));
                }
            }
        }
        pairs
    }

    /// Build on `left`, probe with `right`, and check the emitted pair
    /// sequence and the distinct-key count against the references.
    fn check_against_nested_loop(dtypes: [DataType; 2], left: &[[Value; 2]], right: &[[Value; 2]]) {
        let counters = JoinCounters::new();
        let l = indexed_side(0, dtypes, left);
        let r = indexed_side(1, dtypes, right);
        let hj = HashJoiner::build(StdArc::new(l), &["k0", "k1"], &counters, 1).unwrap();
        let distinct: std::collections::BTreeSet<&[Value; 2]> = left.iter().collect();
        assert_eq!(hj.num_keys(), distinct.len());
        let mut got = Vec::new();
        let n = hj
            .probe(&r, &["k0", "k1"], &counters, |rec| {
                got.push((rec.get(2).as_i64().unwrap(), rec.get(3).as_i64().unwrap()))
            })
            .unwrap();
        let want = nested_loop_pairs(left, right);
        assert_eq!(n as usize, want.len());
        assert_eq!(
            got, want,
            "probe order: right row, then build row ascending"
        );
    }

    #[test]
    fn flat_table_matches_nested_loop_on_colliding_chains() {
        for seed in [1u64, 2, 3] {
            let mut s = seed;
            // 6,000 build rows over a 64×128 key space: ~4,300 distinct
            // keys, most of them duplicated, in 16,384 buckets.
            let mut draw = |n: usize, span: u64| -> Vec<[Value; 2]> {
                (0..n)
                    .map(|_| {
                        let x = (splitmix(&mut s) % span) as i32 - 8;
                        let y = -((splitmix(&mut s) % (2 * span)) as i64) << 20;
                        [Value::I32(x), Value::I64(y)]
                    })
                    .collect()
            };
            let left = draw(6_000, 64);
            let right = draw(3_000, 72);
            let distinct: std::collections::BTreeSet<_> = left.iter().collect();
            assert!(distinct.len() >= 4_096, "{} distinct keys", distinct.len());
            check_against_nested_loop([DataType::I32, DataType::I64], &left, &right);

            // The chains really collide: some bucket holds two keys.
            let counters = JoinCounters::new();
            let l = indexed_side(0, [DataType::I32, DataType::I64], &left);
            let hj = HashJoiner::build(StdArc::new(l), &["k0", "k1"], &counters, 1).unwrap();
            let t = &*hj.table;
            let shared = t.heads.iter().any(|&head| {
                let mut row = head;
                let mut keys = std::collections::BTreeSet::new();
                while row != NIL {
                    keys.insert(t.key(row));
                    row = t.next[row as usize];
                }
                keys.len() > 1
            });
            assert!(shared, "seed {seed}: no bucket chains two keys");
        }
    }

    #[test]
    fn flat_table_float_keys_follow_value_equality() {
        // ±0.0 are one key and every NaN payload is one key, as `Value`
        // equality says.
        let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan_b = f64::from_bits(0xFFF8_0000_0000_0002);
        let zoo = [
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::F64(nan_a),
            Value::F64(nan_b),
            Value::F64(f64::NAN),
            Value::F64(1.5),
            Value::F64(f64::INFINITY),
            Value::F64(f64::NEG_INFINITY),
            Value::F64(f64::MIN_POSITIVE / 2.0),
        ];
        let mut s = 7u64;
        let mut draw = |n: usize| -> Vec<[Value; 2]> {
            (0..n)
                .map(|_| {
                    let a = zoo[(splitmix(&mut s) % zoo.len() as u64) as usize];
                    let b = zoo[(splitmix(&mut s) % zoo.len() as u64) as usize];
                    [a, b]
                })
                .collect()
        };
        let left = draw(300);
        let right = draw(200);
        check_against_nested_loop([DataType::F64, DataType::F64], &left, &right);
    }

    #[test]
    fn key_order_respected_across_schemas() {
        // Joining on (y, x) — key positions differ from storage order.
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["y", "x"], &counters, 1).unwrap();
        let n = hj.probe(&right(), &["y", "x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2);
    }
}
