//! One field list per counter record.
//!
//! `counter_record!` declares a record's struct from its field list and
//! derives the rest from the same list: a `name=value` `Display` (every
//! field, in declaration order, values in `Debug` form so durations keep
//! their unit) and, when the invocation ends in `fn NAME;`, a field-wise
//! sum `NAME(&mut self, other: &Self)`. A new counter is then one field.

macro_rules! counter_record {
    (@sum $name:ident [$($field:ident)*]) => {};
    (@sum $name:ident [$($field:ident)*] $(#[$doc:meta])* fn $sum:ident;) => {
        impl $name {
            $(#[$doc])*
            pub fn $sum(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
        $($sum:tt)*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let fields: &[(&str, &dyn std::fmt::Debug)] =
                    &[$((stringify!($field), &self.$field)),*];
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value:?}")?;
                }
                Ok(())
            }
        }

        counter_record!(@sum $name [$($field)*] $($sum)*);
    };
}
