//! The one description of a scan: an optional inclusive range filter and one
//! aggregate, naming its columns either by name ([`ScanSpec`], what a client
//! writes) or by index ([`ScanPlan`], what the kernels run on).
//! [`ScanSpec::resolve`] is the only place a column name becomes an index.

use crate::scanner::ScanError;

/// Aggregate computed over the selected rows, with columns named by `C`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Agg<C> {
    /// Count the selected rows (always reported anyway).
    #[default]
    Count,
    /// Exact `u128` sum of one column over the selected rows.
    Sum(C),
    /// `GROUP BY id_col` → average of `val_col`, f64-finalized once.
    GroupAvg {
        /// Grouping column.
        id_col: C,
        /// Averaged column.
        val_col: C,
    },
}

/// A filter → aggregate scan, with columns named by `C`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scan<C> {
    /// Optional inclusive range predicate `(column, lo, hi)`.
    pub filter: Option<(C, u64, u64)>,
    /// Aggregate to compute.
    pub agg: Agg<C>,
}

/// A scan over columns named by name: what a `SCAN` request parses to, and
/// what `leco_ingest::LiveTable::scan` and [`Scanner::from_spec`](crate::Scanner::from_spec)
/// take.
pub type ScanSpec = Scan<String>;

/// A scan over columns named by index into one table's schema: what
/// [`ScanSpec::resolve`] yields and [`Scanner`](crate::Scanner) runs.
pub type ScanPlan = Scan<usize>;

impl ScanSpec {
    /// Count-only scan of everything.
    pub fn count() -> Self {
        Self::default()
    }

    /// Add an inclusive range filter on `col`.
    pub fn filter(mut self, col: &str, lo: u64, hi: u64) -> Self {
        self.filter = Some((col.to_string(), lo, hi));
        self
    }

    /// Sum `col` over the selected rows.
    pub fn sum(mut self, col: &str) -> Self {
        self.agg = Agg::Sum(col.to_string());
        self
    }

    /// Group by `id_col`, averaging `val_col`.
    pub fn group_by_avg(mut self, id_col: &str, val_col: &str) -> Self {
        self.agg = Agg::GroupAvg {
            id_col: id_col.to_string(),
            val_col: val_col.to_string(),
        };
        self
    }

    /// Map every column name to its index through `column_index`, filter
    /// column first, then the aggregate's columns in clause order.  The
    /// first name it does not know is [`ScanError::ColumnNotFound`].
    pub fn resolve(
        &self,
        column_index: impl Fn(&str) -> Option<usize>,
    ) -> Result<ScanPlan, ScanError> {
        let col = |name: &String| {
            column_index(name).ok_or_else(|| ScanError::ColumnNotFound(name.clone()))
        };
        let filter = match &self.filter {
            Some((name, lo, hi)) => Some((col(name)?, *lo, *hi)),
            None => None,
        };
        let agg = match &self.agg {
            Agg::Count => Agg::Count,
            Agg::Sum(name) => Agg::Sum(col(name)?),
            Agg::GroupAvg { id_col, val_col } => Agg::GroupAvg {
                id_col: col(id_col)?,
                val_col: col(val_col)?,
            },
        };
        Ok(Scan { filter, agg })
    }
}
