//! Closed choices, named once.
//!
//! A closed choice is an enum whose values a user names by token: a testbed
//! device, a world preset, a transport link. [`choices!`](crate::choices!)
//! declares such an enum from one list of `Variant = "label"` rows and
//! derives its whole name table from it: `ALL` in declaration order,
//! `label()`, `Display` (the label) and a `FromStr` that trims the token,
//! ignores its case, accepts the aliases a row lists after `|`, and fails
//! with one [`UnknownChoice`] shape for every choice:
//! ``unknown <noun> `<token>` (expected a, b, c)``.
//!
//! ```
//! use fedco_device::choices::UnknownChoice;
//!
//! fedco_device::choices! {
//!     /// A toy choice.
//!     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//!     pub enum Speed: "speed" {
//!         /// The slow one.
//!         Slow = "slow",
//!         /// The fast one, also spelt `quick`.
//!         Fast = "fast" | "quick",
//!     }
//! }
//!
//! assert_eq!(Speed::ALL, [Speed::Slow, Speed::Fast]);
//! assert_eq!(" QUICK ".parse(), Ok(Speed::Fast));
//! assert_eq!(Speed::Slow.to_string(), "slow");
//! let err: UnknownChoice = "warp".parse::<Speed>().unwrap_err();
//! assert_eq!(err.to_string(), "unknown speed `warp` (expected slow, fast)");
//! ```

/// A token that names no value of a closed choice. Its message names the
/// token and lists every label, lowercased as a user would type it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownChoice(String);

impl std::fmt::Display for UnknownChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UnknownChoice {}

/// The `FromStr` body of every [`choices!`](crate::choices!) enum: the value
/// one of whose names (label first, then aliases) is the trimmed token, in
/// any case.
#[doc(hidden)]
pub fn find<T: Copy>(token: &str, noun: &str, table: &[(T, &[&str])]) -> Result<T, UnknownChoice> {
    let token = token.trim();
    let named = |names: &[&str]| names.iter().any(|n| n.eq_ignore_ascii_case(token));
    if let Some(&(value, _)) = table.iter().find(|(_, names)| named(names)) {
        return Ok(value);
    }
    let labels: Vec<&str> = table.iter().map(|(_, names)| names[0]).collect();
    let expected = labels.join(", ").to_ascii_lowercase();
    let message = format!("unknown {noun} `{token}` (expected {expected})");
    Err(UnknownChoice(message))
}

/// Declares a closed choice and its name table; see the
/// [module docs](mod@crate::choices). The enum keeps its own attributes and
/// docs, and each variant its own (`#[default]` included).
#[macro_export]
macro_rules! choices {
    ($(#[$meta:meta])* $vis:vis enum $name:ident: $noun:literal {
        $($(#[$vmeta:meta])* $variant:ident = $label:literal $(| $alias:literal)*,)*
    }) => {
        $(#[$meta])*
        $vis enum $name { $($(#[$vmeta])* $variant,)* }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$($label),*].len()] = [$($name::$variant),*];

            /// The canonical token of this value.
            pub fn label(self) -> &'static str { match self { $($name::$variant => $label,)* } }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.label())
            }
        }

        impl ::std::str::FromStr for $name {
            type Err = $crate::choices::UnknownChoice;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                $crate::choices::find(s, $noun, &[$(($name::$variant, &[$label $(, $alias)*])),*])
            }
        }
    };
}
