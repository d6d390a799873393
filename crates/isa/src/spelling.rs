//! Spelling tables for the configuration enums of the simulator stack.
//!
//! Each enum (fetch policy, predictor family, cache organization,
//! workload) keeps exactly one [`Spellings`] table in its own crate. The
//! table is the only place its names are written down: `Display`,
//! `FromStr`, the short id used in cell ids and on the serve wire, and the
//! command-line aliases all read it.
//!
//! ```
//! use smt_isa::spelling::{Spelling, Spellings};
//!
//! #[derive(Clone, Copy, PartialEq, Debug)]
//! enum Side { Left, Right }
//!
//! const SIDES: Spellings<Side> = Spellings {
//!     what: "side",
//!     rows: &[
//!         Spelling { value: Side::Left, id: "l", display: "Left", aliases: &["port"] },
//!         Spelling { value: Side::Right, id: "r", display: "Right", aliases: &[] },
//!     ],
//! };
//!
//! assert_eq!(SIDES.id(Side::Right), "r");
//! assert_eq!(SIDES.from_id("l"), Some(Side::Left));
//! assert_eq!(SIDES.from_id("Left"), None);
//! assert_eq!(SIDES.parse("PORT"), Ok(Side::Left));
//! assert_eq!(SIDES.parse("up").unwrap_err(), "unknown side `up` (expected l|r)");
//! ```

/// Every way one variant is written.
#[derive(Clone, Copy, Debug)]
pub struct Spelling<T: 'static> {
    /// The variant.
    pub value: T,
    /// Short stable id: cell ids, the serve wire, exports.
    pub id: &'static str,
    /// `Display` text.
    pub display: &'static str,
    /// Further command-line spellings.
    pub aliases: &'static [&'static str],
}

/// A variant-complete spelling table.
#[derive(Clone, Copy, Debug)]
pub struct Spellings<T: 'static> {
    /// What the enum names, for error messages (`"fetch policy"`).
    pub what: &'static str,
    /// One row per variant.
    pub rows: &'static [Spelling<T>],
}

impl<T: Copy + PartialEq> Spellings<T> {
    fn row(&self, value: T) -> &'static Spelling<T> {
        self.rows
            .iter()
            .find(|r| r.value == value)
            .expect("every variant has a spelling row")
    }

    /// The short id of `value`.
    #[must_use]
    pub fn id(&self, value: T) -> &'static str {
        self.row(value).id
    }

    /// The display text of `value`.
    #[must_use]
    pub fn display(&self, value: T) -> &'static str {
        self.row(value).display
    }

    /// The variant whose id is exactly `s` — the strict wire form.
    #[must_use]
    pub fn from_id(&self, s: &str) -> Option<T> {
        self.rows.iter().find(|r| r.id == s).map(|r| r.value)
    }

    /// The variant spelled `s` by its id, display text or any alias,
    /// ignoring ASCII case — the command-line form.
    ///
    /// # Errors
    ///
    /// A message naming the unknown spelling and listing the ids.
    pub fn parse(&self, s: &str) -> Result<T, String> {
        self.rows
            .iter()
            .find(|r| {
                std::iter::once(&r.id)
                    .chain(std::iter::once(&r.display))
                    .chain(r.aliases)
                    .any(|name| name.eq_ignore_ascii_case(s))
            })
            .map(|r| r.value)
            .ok_or_else(|| format!("unknown {} `{s}` (expected {})", self.what, self.ids()))
    }

    /// Every id, `|`-separated, in table order.
    #[must_use]
    pub fn ids(&self) -> String {
        self.rows.iter().map(|r| r.id).collect::<Vec<_>>().join("|")
    }
}
